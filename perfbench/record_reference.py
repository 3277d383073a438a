"""Record reference.json: the outcome letter of every pool op at the current
commit (see workloads.py for the letters).

    python3 perfbench/record_reference.py

Re-record only in a change that redefines the benchmark: the record is the
regression guard that later changes are checked against.  It also prints
the census of the first 300 seed-7 systems that ROADMAP item 4 describes.
"""

from __future__ import annotations

import json
import os
import sys

import run

CENSUS = 300


def census(forms: dict) -> dict:
    drawn = forms["drawn"][:CENSUS]
    out = {"affirmative": sum(c.upper() == "Y" for c in drawn),
           "negative": sum(c.upper() == "N" for c in drawn)}
    for form in ("E*1e3", "K*1e-4"):
        codes = forms[form][:CENSUS]
        out[form] = {
            "failures": codes.count("F"),
            "flips": sum(a != "F" and b != "F" and a.upper() != b.upper()
                         for a, b in zip(drawn, codes))}
    return out


def main() -> int:
    run.pin_blas_threads()
    import workloads
    import gen
    sys.path.insert(0, workloads.SRC)

    reference = {"decide-lifted": {}, "decide-rescaled": {}}
    lifted = workloads.DecideWorkload("decide-lifted", 0, 0)
    for n in gen.LIFTED_POOL:
        lifted.inputs = [((n, i, "drawn"), lifted._system(m))
                         for i, m in enumerate(gen.lifted_pool(n))]
        ops = [lifted.run_op(item) for item in lifted.inputs]
        lifted.check(ops)
        reference["decide-lifted"][str(n)] = "".join(op.code for op in ops)
        print(f"decide-lifted n={n}: {reference['decide-lifted'][str(n)]}", flush=True)

    rescaled = workloads.DecideWorkload("decide-rescaled", 0, 0)
    rescaled.inputs = [((0, i, form), rescaled._system(m))
                       for i, mats in enumerate(gen.rescaled_pool())
                       for form, m in gen.rescaled_forms(mats).items()]
    ops = [rescaled.run_op(item) for item in rescaled.inputs]
    rescaled.check(ops)
    forms = {form: "".join(op.code for op in ops if op.key[2] == form)
             for form in gen.RESCALED_FORMS}
    reference["decide-rescaled"] = forms
    print(f"census of the first {CENSUS} seed-7 systems:",
          json.dumps(census(forms)))

    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.REFERENCE)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
