"""Record the outputs that the benchmark's checks compare against.

Run from the repository root, only when the program's numerics are meant to
change (for example a new checkpoint format that changes no number does
not need it):

    python3 perfbench/record_reference.py

For each of the ``VARIANTS`` input series it runs the ``train`` and
``predict`` workloads' set-up and one operation exactly as a benchmark run
does, and writes the final validation loss and the forecasts to
``perfbench/reference.json``.
"""

import json
import shutil
import sys

import run  # pins the BLAS thread count before numpy loads
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    reference = {"variants": workloads.VARIANTS, "train_val_loss": {}, "predict": {}}
    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / "record-reference"
    for variant in range(workloads.VARIANTS):
        for cls, key in ((workloads.Train, "train_val_loss"), (workloads.Predict, "predict")):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            workload = cls(work, variant)
            workload.generate()
            workload.setup()
            reference[key][str(variant)] = workload.observe(workload.op())
        print(f"variant {variant}: val loss {reference['train_val_loss'][str(variant)]!r}")
    shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
