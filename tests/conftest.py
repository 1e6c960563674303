from pathlib import Path

import pytest

from nordenlight.ambient import build_ambient_geometry
from nordenlight.hypersurface import (
    construct_screen,
    construct_transversal,
    gauss_weingarten,
    induce_and_classify,
    radical_transversal_check,
    umbilical_test,
)
from nordenlight.manifold_file import (
    hypersurface_specs,
    lie_algebra_spec,
    norden_from_file,
    parse_manifold_file,
)

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
    from dataclasses import replace

    _, _, amb = golden
    hs = hypersurface_specs(golden_mf)[0]
    cls = induce_and_classify(hs, amb)
    screen = construct_screen(hs, cls)
    frame = construct_transversal(hs, amb, cls, screen)
    rt = radical_transversal_check(frame)
    frame = replace(frame, b=rt.b)
    sf = gauss_weingarten(frame, amb)
    umb = umbilical_test(sf, frame)
    sf = replace(sf, rho=umb.rho)
    return frame, sf, umb.rho


@pytest.fixture(scope="session")
def abelian(abelian_text):
    mf = parse_manifold_file(abelian_text)
    spec = lie_algebra_spec(mf)
    ns = norden_from_file(mf)
    return spec, ns, build_ambient_geometry(spec, ns), mf
