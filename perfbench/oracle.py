"""Closed-form correctness oracle for the benchmark.

`check` compares the fields of a report with the verdict its `Case` states
(see `family.py`) and returns the list of disagreements; an empty list is a
correct verdict. Fields are compared rather than report bytes, so that new
report fields do not count as wrong answers.
"""

from __future__ import annotations

from fractions import Fraction

from family import Case


def _check_full_path(block: dict, lam: Fraction, h: int) -> list[str]:
    bad = []
    target = 4 * lam * lam
    if not block.get("umbilical", {}).get("holds"):
        return ["full-path block is not totally umbilical"]
    rho = Fraction(block["umbilical"]["rho"])
    b = Fraction(block["radical_transversal"]["b"])
    if rho * rho / b != target:
        bad.append(f"rho^2/b = {rho * rho / b}, expected {target}")
    flags = block["flags"]
    for name in ("semi_symmetric", "ricci_semi_symmetric", "locally_symmetric"):
        if not flags[name]["holds"]:
            bad.append(f"flag {name} does not hold")
    einstein = flags["almost_einstein"]
    if einstein["kind"] == "infeasible":
        bad.append("almost einstein fit is infeasible")
    else:
        k, c = Fraction(einstein["k"]), Fraction(einstein["c"])
        if k != 8 * (h - 1) * lam * lam or c != 0:
            bad.append(f"einstein (k, c) = ({k}, {c}), expected ({8 * (h - 1) * lam * lam}, 0)")
    audit = block["audit"]
    if lam == 0:
        if audit["applicable"]:
            bad.append("audit applicable on a flat ambient")
    else:
        ci = audit.get("condition_iii", {})
        sides = (Fraction(ci.get("lhs", 0)), Fraction(ci.get("rhs", 0)))
        if not audit["applicable"] or sides != (target, target):
            bad.append(f"audit condition (iii) is {ci}, expected {target} = {target}")
        if audit.get("condition_iii_holds") is not True or audit.get("consistent") is not True:
            bad.append("audit does not hold or is not consistent")
    return bad


def _check_block(block: dict, expected: str, lam: Fraction, h: int) -> list[str]:
    if expected == "ok":
        if block["status"] != "ok":
            return [f"block {block['index']} status {block['status']}: {block.get('detail')}"]
        return _check_full_path(block, lam, h)
    if block["status"] != "hypothesis_failure":
        return [f"block {block['index']} status {block['status']}, expected hypothesis_failure"]
    if expected == "nondegenerate" and "normal_direction" not in block:
        return [f"block {block['index']} is not reported nondegenerate: {block.get('detail')}"]
    if expected == "not_umbilical" and block.get("umbilical", {}).get("holds") is not False:
        return [f"block {block['index']} is not reported non-umbilical: {block.get('detail')}"]
    return []


def check(case: Case, data: dict, exit_code: int) -> list[str]:
    """Disagreements between a report (its data dict and exit code) and the
    verdict `case` states."""
    if exit_code != case.exit_code:
        return [f"exit code {exit_code}, expected {case.exit_code}"]
    if case.exit_code == 3:
        if data["status"] != "validation_failure":
            return [f"status {data['status']}, expected validation_failure"]
        if case.failed_check == "kaehler":
            if data.get("ambient", {}).get("kaehler_norden") is not False:
                return ["ambient build did not reject the non-parallel J"]
            return []
        failed = {
            c["name"]
            for section in data["validation"].values()
            if isinstance(section, dict)
            for c in section["checks"]
            if not c["ok"]
        }
        if case.failed_check not in failed:
            return [f"failed checks {sorted(failed)}, expected {case.failed_check}"]
        return []

    bad = []
    cc = data["ambient"]["constant_curvatures"]
    lam = case.lam
    if cc["kind"] != "constant" or Fraction(cc["nu"]) != 4 * lam * lam or Fraction(cc["nu_assoc"]) != 0:
        bad.append(f"ambient constants {cc}, expected nu = {4 * lam * lam}, nu_assoc = 0")
    blocks = data["hypersurfaces"]
    if len(blocks) != len(case.blocks):
        return bad + [f"{len(blocks)} hypersurface blocks, expected {len(case.blocks)}"]
    for block, expected in zip(blocks, case.blocks):
        bad += _check_block(block, expected, lam, case.h)
    return bad
