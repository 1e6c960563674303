from pathlib import Path

import pytest

from nordenlight.ambient import build_ambient_geometry
from nordenlight.manifold_file import (
    hypersurface_specs,
    lie_algebra_spec,
    norden_from_file,
    parse_manifold_file,
)
from nordenlight.pipeline import run_block

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def golden_text():
    return (FIXTURES / "sl2c_borel.mf").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def abelian_text():
    return (FIXTURES / "abelian_flat.mf").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def golden_mf(golden_text):
    return parse_manifold_file(golden_text)


@pytest.fixture(scope="session")
def golden(golden_mf):
    """(spec, norden, ambient) of the curved fixture."""
    spec = lie_algebra_spec(golden_mf)
    ns = norden_from_file(golden_mf)
    return spec, ns, build_ambient_geometry(spec, ns)


@pytest.fixture(scope="session")
def golden_run(golden, golden_mf):
    """Full hypersurface products of the curved fixture: (frame, sf, rho)."""
    run = run_block(hypersurface_specs(golden_mf)[0], golden[2])
    return run.frame, run.sf, run.umb.rho


@pytest.fixture(scope="session")
def abelian(abelian_text):
    mf = parse_manifold_file(abelian_text)
    spec = lie_algebra_spec(mf)
    ns = norden_from_file(mf)
    return spec, ns, build_ambient_geometry(spec, ns), mf
