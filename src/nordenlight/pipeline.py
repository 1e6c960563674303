"""Pipeline orchestration and report emission.

Runs validation and the ambient derivation in `run_ambient`, and each
hypersurface block's frame and audit machinery in `run_block`; each keeps
what its stages returned in a record (`AmbientRun`, `BlockRun`), and the
report's sections are rendered from those records into one report structure
that renders either as sectioned text or as a JSON document with stable field
order and rationals serialized as strings. Identical input produces
byte-identical structured reports.

Exit codes: 0 success, 2 parse error, 3 validation failure (the input is not
a valid Kaehler-Norden setup), 4 hypothesis failure (a hypersurface is not
lightlike / radical transversal / totally umbilical where required), 5
internal inconsistency (a proved identity failed; an engine bug, never an
input property). Hypothesis failures stop the failing block but not the
others.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import add, floordiv, mod

from . import __version__
from .ambient import AmbientGeometry, Check, build_ambient_geometry, require_equal, validate_lie_algebra, validate_norden
from .ambient import LieAlgebraSpec, NordenStructure, ValidationReport
from .errors import HypothesisFailure, InternalInconsistency, ValidationFailure
from .exact import DenseTensor, format_ratio, format_rational
from .hypersurface import (
    Classification,
    HypersurfaceSpec,
    LightlikeFrame,
    SecondFundamental,
    UmbilicalResult,
    construct_screen,
    construct_transversal,
    gauss_weingarten,
    induce_and_classify,
    radical_transversal_check,
    umbilical_test,
    validate_span,
    verify_frame_identities,
)
from .manifold_file import ManifoldFile, hypersurface_specs, lie_algebra_spec, norden_from_file
from .symmetry import (
    AuditVerdict,
    PdeResiduals,
    SymmetryFlags,
    almost_einstein_fit,
    induced_curvature_closed_form,
    induced_curvature_gauss,
    induced_ricci,
    locally_symmetric_check,
    pde_residuals,
    ricci_semi_symmetric_check,
    semi_symmetric_check,
    symmetry_equivalence_audit,
)

RICCI_SIGN_NOTE = (
    "ricci convention: Ric(X,Y) = trace(Z -> R(Z,X)Y); the opposite trace order "
    "(Z -> R(X,Z)Y) negates every Ricci entry and the einstein coefficients, and "
    "leaves every vanishing check and the einstein feasibility unchanged"
)
# the status of a block and of the report, by exit code
STATUS = {0: "ok", 3: "validation_failure", 4: "hypothesis_failure", 5: "internal_inconsistency"}


@dataclass(frozen=True)
class Report:
    data: dict
    exit_code: int


@dataclass
class AmbientRun:
    """What validation and the ambient derivation returned, in stage order;
    `amb` stays None when `stop`, the failure that ended them, came first."""

    validation: dict[str, ValidationReport]  # `norden` runs once `lie_algebra` passed
    amb: AmbientGeometry | None = None
    stop: ValidationFailure | InternalInconsistency | None = None


def run_ambient(spec: LieAlgebraSpec, ns: NordenStructure) -> AmbientRun:
    """Validate, then derive the ambient geometry, up to the first failure."""
    run = AmbientRun({"lie_algebra": validate_lie_algebra(spec)})
    try:
        if not run.validation["lie_algebra"].ok:
            raise ValidationFailure("the bracket failed validation")
        run.validation["norden"] = validate_norden(spec, ns)
        if not run.validation["norden"].ok:
            raise ValidationFailure("the Norden structure failed validation")
        run.amb = build_ambient_geometry(spec, ns)
    except (ValidationFailure, InternalInconsistency) as exc:
        run.stop = exc
    return run


@dataclass
class BlockRun:
    """What the stages of one hypersurface block returned, in stage order; a
    field stays None when `stop`, the failure that stopped the block, came
    first. The frame is kept once its radical-transversal check returned, the
    second fundamental data once the umbilical test did (`sf` with rho once
    the block is totally umbilical)."""

    spec: HypersurfaceSpec
    subalgebra: bool = False  # the span passed `validate_span`
    classes: dict[str, Classification] | None = None  # per inducing metric
    frame: LightlikeFrame | None = None
    sf: SecondFundamental | None = None
    umb: UmbilicalResult | None = None
    identities: tuple[Check, ...] | None = None
    residuals: PdeResiduals | None = None
    r13: DenseTensor | None = None
    ricci: DenseTensor | None = None
    flags: SymmetryFlags | None = None
    audit: AuditVerdict | None = None
    stop: HypothesisFailure | InternalInconsistency | None = None


def run_block(hs: HypersurfaceSpec, amb: AmbientGeometry) -> BlockRun:
    """Run the stages of one hypersurface block in order, keeping what each
    returned, up to the audit or to the first HypothesisFailure or
    InternalInconsistency. Besides the stages' own, it stops at a
    nondegenerate block, a frame that is not radical transversal, a failed
    frame identity and (after the identities) a block not totally umbilical."""
    run = BlockRun(hs)
    try:
        validate_span(hs, amb)
        run.subalgebra = True
        run.classes = {w: induce_and_classify(replace(hs, inducing_metric=w), amb) for w in ("principal", "associated")}
        cls = run.classes[hs.inducing_metric]
        if cls.kind == "nondegenerate":
            raise HypothesisFailure(
                "hypersurface is nondegenerate for the inducing metric; "
                "the lightlike analysis does not apply"
            )
        frame = construct_transversal(hs, amb, cls, construct_screen(hs, cls))
        holds = radical_transversal_check(frame)
        run.frame = frame
        if not holds:
            raise HypothesisFailure(
                "J does not map the radical onto the transversal line; "
                "the radical-transversal analysis does not apply"
            )
        run.sf = sf = gauss_weingarten(frame, amb)
        run.umb = umb = umbilical_test(sf, frame)
        run.identities = verify_frame_identities(sf, frame, umb.rho)
        failed = next((c.name for c in run.identities if not c.ok), None)
        if failed is not None:
            raise InternalInconsistency(f"frame identity failed: {failed}")
        if not umb.umbilical:
            raise HypothesisFailure("hypersurface is not totally umbilical; audit skipped")
        run.sf = sf = replace(sf, rho=umb.rho)
        run.residuals = pde_residuals(sf, frame, amb)
        r13 = induced_curvature_gauss(sf, frame, amb)
        r13_closed = induced_curvature_closed_form(frame, sf, amb)
        require_equal(r13, r13_closed, "gauss and closed-form curvature routes disagree", "gauss", "closed form")
        run.r13 = r13
        run.ricci = ricci = induced_ricci(r13, sf, frame, amb)
        run.flags = SymmetryFlags(
            semi_symmetric_check(r13),
            ricci_semi_symmetric_check(r13, ricci),
            locally_symmetric_check(r13, sf.induced_gamma),
            almost_einstein_fit(ricci, run.classes["principal"].gram, run.classes["associated"].gram),
        )
        run.audit = symmetry_equivalence_audit(run.flags, hs.inducing_metric, amb.trsc, umb.rho, frame.b)
    except (HypothesisFailure, InternalInconsistency) as exc:
        run.stop = exc
    return run


def _listing(table: DenseTensor, names, open_: str, sep: str, close: str, end: str = "") -> list[str]:
    """The report listing of the nonzero entries of a table, row-major, as
    both renderers write a table in `Report.data`: each entry is open_ + its
    index names (names[i] for index i) joined by sep + close + value + end,
    built once per table row and value."""
    n = table.dims[-1]
    values = {x: close + format_ratio(x, table.den) + end for x in set(table.nums)}
    named = [name + sep for name in names]
    rows = table.indexes([r * n for r in table.rows])
    heads = {r: open_ + "".join(map(named.__getitem__, ix[:-1])) for r, ix in zip(table.rows, rows)}
    leads = map(heads.__getitem__, map(floordiv, table.offsets, repeat(n)))
    lasts = map(names.__getitem__, map(mod, table.offsets, repeat(n)))
    return list(map(add, map(add, leads, lasts), map(values.__getitem__, table.nums)))


def _vector(v: DenseTensor) -> list[str]:
    """The entries of a vector table, each formatted from its numerator."""
    nums, den = v.lattice()
    return [format_ratio(x, den) for x in nums]


def _rows(m: DenseTensor) -> list[list[str]]:
    """The rows of a matrix table, formatted as `_vector` does."""
    rows, den = m.lattice()
    return [[format_ratio(x, den) for x in row] for row in rows]


def _combo(coords: DenseTensor, labels) -> str:
    """Render a coordinate vector as a linear combination of basis labels."""
    parts = []
    for x, label in zip(coords.lattice()[0], labels):
        if not x:
            continue
        text = format_ratio(abs(x), coords.den)
        term = label if text == "1" else f"{text}*{label}"
        parts.append(f"+ {term}" if x > 0 else f"- {term}")
    if not parts:  # a zero xi-shape image is aligned, and can be the umbilical witness when the factors differ
        return "0"
    head = parts[0]
    head = head[2:] if head.startswith("+ ") else "-" + head[2:]
    return " ".join([head] + parts[1:])


def _check_dicts(checks) -> list[dict]:
    """Validation checks and frame identities as the report lists them."""
    return [
        {"name": c.name, "ok": c.ok, "witness": list(c.witness) if c.witness else None}
        for c in checks
    ]


def run_pipeline(mf: ManifoldFile) -> Report:
    front = run_ambient(lie_algebra_spec(mf), norden_from_file(mf))
    runs = [] if front.amb is None else [run_block(hs, front.amb) for hs in hypersurface_specs(mf)]
    worst = max((run.stop.exit_code for run in (front, *runs) if run.stop), default=0)
    labels = mf.basis_labels
    validation = {name: {"ok": r.ok, "checks": _check_dicts(r.checks)} for name, r in front.validation.items()}
    data: dict = {
        "engine": {"name": "nordenlight", "version": __version__},
        "input_digest": "sha256:" + hashlib.sha256(mf.to_text().encode("utf-8")).hexdigest(),
        "validation": {**validation, "ok": all(r.ok for r in front.validation.values())},
    }
    if front.amb is not None:
        data["ambient"] = _ambient_entry(front.amb, labels)
        data["hypersurfaces"] = [
            _block_entry(index, block, run, labels) for index, (block, run) in enumerate(zip(mf.hypersurfaces, runs))
        ]
    elif data["validation"]["ok"]:  # the ambient derivation stopped: the report lists its status before its detail
        data["status"] = None
        kaehler = {"kaehler_norden": False} if isinstance(front.stop, ValidationFailure) else {}  # J not parallel
        data["ambient"] = {**kaehler, "detail": str(front.stop)}
    data["status"] = STATUS[worst]
    return Report(data, worst)


def _ambient_entry(amb: AmbientGeometry, labels) -> dict:
    """The ambient section of a report, from the derived geometry."""
    trsc = amb.trsc
    constant = trsc.kind == "constant"
    return {
        "dim": amb.spec.dim,
        "basis_labels": list(labels),
        "kaehler_norden": True,
        "connection_nonzero": amb.gamma,
        "curvature_nonzero": amb.riemann04,
        "constant_curvatures": (
            {
                "kind": "constant",
                "nu": format_rational(trsc.nu),
                "nu_assoc": format_rational(trsc.nu_assoc),
                # pi1 - pi2 and pi3 are independent on every valid Norden
                # structure, so the fit is never parametric
                "degenerate_fit": False,
            }
            if constant
            else {"kind": "not_constant"}
        ),
        # the constants of g~ = gJ, derived from the fit (see `ambient`)
        "associated_constants": (
            {"nu_prime": format_rational(-trsc.nu_assoc), "nu_assoc_prime": format_rational(trsc.nu)}
            if constant
            else None
        ),
        "ricci_nonzero": amb.ricci,
        "ricci_sign_note": RICCI_SIGN_NOTE,
    }


def _block_entry(index: int, block, run: BlockRun, labels) -> dict:
    """The structured report entry of one block, from its `BlockRun`: a
    section for each stage that returned, then the status."""
    which = run.spec.inducing_metric
    span = [labels[i - 1] for i in block.span_indices]
    out: dict = {"index": index, "inducing_metric": which, "span_indices": list(block.span_indices), "span": span}
    if run.subalgebra:
        out["subalgebra"] = True
    if run.classes is not None:
        out["classification"] = {name: c.kind for name, c in run.classes.items()}
        cls = run.classes[which]
        if cls.kind == "nondegenerate":
            out["normal_direction"] = _vector(cls.normal_direction)
            out["normal_note"] = "raw direction vector; no unit normalization is attempted"
        else:
            out["radical"] = _vector(cls.radical_ambient)
    frame = run.frame
    if frame is not None:
        out["frame"] = {
            "xi": _vector(frame.xi),
            "xi_combo": _combo(frame.xi, labels),
            "transversal": _vector(frame.transversal),
            "transversal_combo": _combo(frame.transversal, labels),
            "screen": [span[i] for i in frame.screen_indices],
            "eta": _vector(frame.eta),
        }
        holds = frame.b is not None  # the screen is holomorphic exactly then
        b = format_rational(frame.b) if holds else None
        out["radical_transversal"] = {"holds": holds, "b": b, "screen_holomorphic": holds}
    sf, umb = run.sf, run.umb
    if umb is not None:
        out["second_fundamental"] = {
            "b_table": _rows(sf.b_form),
            "c_table": _rows(sf.c_form),
            "a_star_xi": _rows(sf.a_star_xi),
            "a_n": _rows(sf.a_n),
            "tau": _vector(sf.tau),
        }
        if umb.umbilical:
            out["umbilical"] = {"holds": True, "rho": format_rational(umb.rho)}
        elif umb.witness_index is not None:  # without a witness a frame identity fails
            out["umbilical"] = {
                "holds": False,
                "witness": {
                    "field": span[umb.witness_index],
                    "shape_image": _vector(umb.witness_image),
                    "shape_image_combo": _combo(umb.witness_image, labels),
                },
            }
    if run.identities is not None:
        out["identities"] = _check_dicts(run.identities)
    if run.residuals is not None:
        out["residuals"] = {
            "radial": format_rational(run.residuals.radial),
            "screen": _vector(run.residuals.screen_directions),
        }
    flags = run.flags
    if flags is not None:
        out["induced"] = {
            "curvature_routes_match": True,
            "curvature_nonzero": run.r13,
            "ricci": _rows(run.ricci),
            "ricci_opposite_trace": _rows(-run.ricci),
            "ricci_routes_match": True,
            "ricci_sign_note": RICCI_SIGN_NOTE,
        }
        out["flags"] = {
            "semi_symmetric": _flag_dict(flags.semi_symmetric),
            "ricci_semi_symmetric": _flag_dict(flags.ricci_semi_symmetric),
            "locally_symmetric": _flag_dict(flags.locally_symmetric),
            "almost_einstein": _einstein_dict(flags.almost_einstein),
        }
    verdict = run.audit
    if verdict is not None:
        audit: dict = {"applicable": verdict.applicable}
        if verdict.lhs is not None:
            audit["condition_iii"] = {"lhs": format_rational(verdict.lhs), "rhs": format_rational(verdict.rhs)}
            audit["condition_iii_holds"] = verdict.condition_holds
        audit["consistent"] = verdict.consistent
        audit["notes"] = list(verdict.notes)
        out["audit"] = audit
    out["status"] = STATUS[run.stop.exit_code if run.stop else 0]
    if run.stop is not None:
        out["detail"] = str(run.stop)
    return out


def _flag_dict(flag) -> dict:
    d: dict = {"holds": flag.holds}
    if not flag.holds:
        d["witness"] = list(flag.witness)
        d["value"] = _vector(flag.value)
    return d


def _einstein_dict(fit) -> dict:
    if fit.kind == "infeasible":
        return {"kind": "infeasible", "witness": list(fit.witness) if fit.witness else None}
    d = {"kind": fit.kind, "k": format_rational(fit.k), "c": format_rational(fit.c)}
    if fit.kind == "parametric":
        d["family"] = [_vector(v) for v in fit.nullspace]
    return d


# ---------------------------------------------------------------------------
# emission


def emit_report(report: Report, fmt: str = "text") -> str:
    if fmt == "structured":
        out: list[str] = []
        _write_json(report.data, "", out)
        return "".join(out) + "\n"
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _write_json(obj, pad: str, out: list[str]) -> None:
    """Append at indent pad what json.dumps writes with indent=2 and
    ensure_ascii=True, for str, int, bool, None, list, str-keyed dict and
    `DenseTensor` (written as the `_listing` of its nonzero entries); other
    types raise TypeError. (Indented, json.dumps is pure Python.)"""
    inner = pad + "  "
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, DenseTensor):
        names = [f"{inner}    {i + 1}" for i in range(max(obj.dims))]
        parts = ('{q}{{\n{q}  "index": [\n', ",\n", '\n{q}  ],\n{q}  "value": "', '"\n{q}}}')
        entries = _listing(obj, names, *(part.format(q=inner) for part in parts))
        out.append("[\n" + ",\n".join(entries) + "\n" + pad + "]" if entries else "[]")
    elif not isinstance(obj, (dict, list)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    elif not obj:  # an empty dict or list
        out.append("{}" if isinstance(obj, dict) else "[]")
    else:
        keyed = isinstance(obj, dict)
        keys = [encode_basestring_ascii(key) + ": " for key in obj] if keyed else repeat("")
        sep = ("{" if keyed else "[") + "\n" + inner
        for key, value in zip(keys, obj.values() if keyed else obj):
            out.append(sep + key)
            _write_json(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + ("}" if keyed else "]"))


def _render_text(report: Report) -> str:
    d = report.data
    lines = []
    lines.append(f"{d['engine']['name']} {d['engine']['version']}")
    lines.append(f"input digest: {d['input_digest']}")
    lines.append("")
    lines.append("[validation]")
    val = d["validation"]
    for section in ("lie_algebra", "norden"):
        if section in val:
            sec = val[section]
            status = "PASS" if sec["ok"] else "FAIL"
            lines.append(f"{section.replace('_', ' ')}: {status}")
            for c in sec["checks"]:
                if not c["ok"]:
                    lines.append(f"  failed: {c['name']} witness {c['witness']}")
    if d["status"] == "validation_failure":
        if "ambient" in d and d["ambient"].get("detail"):
            lines.append(d["ambient"]["detail"])
        lines.append("")
        lines.append("validation failure: nothing further computed")
        return "\n".join(lines) + "\n"

    amb = d["ambient"]
    if "basis_labels" not in amb:  # the ambient derivation stopped at an internal inconsistency
        lines += ["", "[ambient]", amb["detail"], "", f"overall status: {d['status']}"]
        return "\n".join(lines) + "\n"
    labels = amb["basis_labels"]
    lines.append("")
    lines.append("[ambient]")
    lines.append(f"dimension: {amb['dim']}")
    lines.append("kaehler-norden: yes")
    lines.append("connection nonzeros:")
    gamma = amb["connection_nonzero"]
    coefs = {x: format_ratio(x, gamma.den) for x in set(gamma.nums)}
    for row, items in gamma.rows.items():
        i, j = divmod(row, gamma.dims[1])
        terms = [labels[k] if coefs[x] == "1" else f"{coefs[x]}*{labels[k]}" for k, x in items]
        lines.append(f"  nabla_{{{labels[i]}}} {labels[j]} = " + " + ".join(terms))
    lines.append("curvature nonzeros:")
    lines += _listing(amb["curvature_nonzero"], labels, "  R(", ",", ") = ")
    cc = amb["constant_curvatures"]
    if cc["kind"] == "constant":
        lines.append(
            f"totally real sectional curvatures: constant, nu = {cc['nu']}, nu_assoc = {cc['nu_assoc']}"
        )
        ac = amb["associated_constants"]
        lines.append(f"associated-metric constants: nu' = {ac['nu_prime']}, nu_assoc' = {ac['nu_assoc_prime']}")
    else:
        lines.append("totally real sectional curvatures: not constant")
    lines.append(f"note: {amb['ricci_sign_note']}")

    for h in d.get("hypersurfaces", []):
        lines.append("")
        lines.append(
            f"[hypersurface {h['index'] + 1}] span {{{', '.join(h['span'])}}} "
            f"inducing metric: {h['inducing_metric']}"
        )
        if "classification" in h:
            cl = h["classification"]
            lines.append(
                f"classification: principal -> {cl['principal']}, associated -> {cl['associated']}"
            )
        if "normal_direction" in h:
            lines.append(f"normal direction (raw): {h['normal_direction']}")
        if "frame" in h:
            fr = h["frame"]
            lines.append(
                f"frame: xi = {fr['xi_combo']}, N = {fr['transversal_combo']}, "
                f"screen = {{{', '.join(fr['screen'])}}}"
            )
        if "radical_transversal" in h:
            rt = h["radical_transversal"]
            if rt["holds"]:
                lines.append(f"radical transversal: yes, b = {rt['b']}")
            else:
                lines.append("radical transversal: no")
        if "umbilical" in h:
            if h["umbilical"]["holds"]:
                lines.append(f"totally umbilical: rho = {h['umbilical']['rho']}")
            else:
                w = h["umbilical"]["witness"]
                lines.append(
                    "totally umbilical: no "
                    f"(shape image of {w['field']} is {w['shape_image_combo']})"
                )
        if "identities" in h:
            bad = [c["name"] for c in h["identities"] if not c["ok"]]
            if bad:
                lines.append(f"frame identities: FAILED {bad}")
            else:
                lines.append(f"frame identities: all pass ({len(h['identities'])})")
        if "residuals" in h:
            lines.append(
                f"umbilical residuals: radial = {h['residuals']['radial']}, "
                f"screen = {h['residuals']['screen']}"
            )
        if "induced" in h:
            ind = h["induced"]
            # both routes always agree here: a disagreement raises before the dict is built
            lines.append("induced curvature: gauss and closed-form routes match")
            lines.append(
                "induced ricci (canonical trace): "
                + "; ".join(" ".join(row) for row in ind["ricci"])
            )
            lines.append("ricci routes agree: yes")
        if "flags" in h:
            fl = h["flags"]
            ae = fl["almost_einstein"]
            ae_text = (
                f"k = {ae['k']}, c = {ae['c']}" + (" (family)" if ae["kind"] == "parametric" else "")
                if ae["kind"] != "infeasible"
                else "infeasible"
            )
            lines.append(
                "flags: locally symmetric: "
                + _yn(fl["locally_symmetric"]["holds"])
                + "; semi-symmetric: "
                + _yn(fl["semi_symmetric"]["holds"])
                + "; ricci semi-symmetric: "
                + _yn(fl["ricci_semi_symmetric"]["holds"])
                + "; almost einstein: "
                + ae_text
            )
        if "audit" in h:
            a = h["audit"]
            if a["applicable"]:
                ci = a["condition_iii"]
                lines.append(
                    f"audit: condition (iii) {ci['lhs']} = {ci['rhs']}: "
                    + _yn(a["condition_iii_holds"])
                    + "; consistent: "
                    + _yn(a["consistent"])
                )
            else:
                lines.append("audit: not applicable")
        if h["status"] != "ok":
            lines.append(f"status: {h['status']} ({h.get('detail', '')})")
    lines.append("")
    lines.append(f"overall status: {d['status']}")
    return "\n".join(lines) + "\n"


def _yn(flag) -> str:
    return "yes" if flag else "no"
