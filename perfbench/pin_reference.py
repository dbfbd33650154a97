"""Recompute perfbench/reference.json, the values the output checks pin.

    python3 perfbench/pin_reference.py

Seed 0 applies no rotation.  For sphere_l6 and the lab scenarios with a
closed form, "lambda2_exact" is the gallery's closed-form value; the
ellipsoid has none, so its "lambda2_exact" is the Richardson
extrapolation lambda2(L6) + (lambda2(L6) - lambda2(L5)) / 3 of the
O(h^2) P1 error.  Only rerun this when a change to the program is meant
to move the pinned values.
"""

import json
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import reillylab  # noqa: E402
import workloads  # noqa: E402


def fem_values(workload):
    imm = workload.geometry()
    spec = reillylab.operator_from_label(workload.operator)
    rep = reillylab.fem_report(imm, spec, level=workload.level)
    out = {"lambda2": rep.lambda2, "rhs": rep.rhs}
    exact = imm.reference.get(spec.label)
    if exact is not None and exact.lambda2 is not None:
        out["lambda2_exact"] = exact.lambda2
    else:
        lam = {lvl: reillylab.fem_report(imm, spec, level=lvl).lambda2
               for lvl in (workload.level, workload.level + 1)}
        coarse, fine = lam[workload.level], lam[workload.level + 1]
        out["lambda2_exact"] = fine + (fine - coarse) / 3.0
    return out


def lab_values(lab):
    with open(workloads.LAB_CONFIG) as fh:
        scenarios = json.load(fh)["scenarios"]
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        state = lab.prepare(0, Path(tmp))
        result = lab.run(state)
        lam = {}
        for sc in scenarios:
            report = result.outdir / "run" / sc["name"] / "report.json"
            with open(report) as fh:
                lam[sc["name"]] = json.load(fh)[0]["lambda2"]
    exact = {}
    for sc in scenarios:
        geo = sc["geometry"]
        imm = reillylab.gallery(geo["gallery"], **geo.get("params", {}))
        op = sc["operator"]
        label = op if isinstance(op, str) else "newton:%d" % op["degree"]
        record = imm.reference.get(label)
        if record is not None and record.lambda2 is not None:
            exact[sc["name"]] = record.lambda2
    return {"lambda2": lam, "lambda2_exact": exact}


def main():
    ref = {}
    for name, workload in workloads.WORKLOADS.items():
        if isinstance(workload, workloads.FemWorkload):
            ref[name] = fem_values(workload)
        else:
            ref[name] = lab_values(workload)
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(ref, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
