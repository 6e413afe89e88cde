"""Self-test of the benchmark's checks and tracer on tiny inputs.

    python3 bench/selftest.py

Exits 0 when a clean run passes the output checks, one corrupted output
byte makes them fail, a failing verify suite is caught, and the tracer sees
calls made through every `from ... import` binding.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run  # pins BLAS threads before numpy loads
from checks import check_quantize, check_verify
from inputs import write_manifest


def flip_byte(path, offset: int) -> None:
    buf = bytearray(path.read_bytes())
    buf[offset] ^= 0x40
    path.write_bytes(bytes(buf))


def main() -> int:
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    deadline = time.monotonic() + run.DEADLINE_S
    failures = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    try:
        manifest = write_manifest(work / "inputs", 0, 2, 8, 256, 32, "layer")
        layers = json.loads(manifest.read_text())["layers"]
        for method in ("rtn", "gptq"):
            out = work / method
            argv = ["-m", "sarqc.cli", "quantize", "--method", method, "--manifest", str(manifest), "--out", str(out)]
            rc = run.spawn(argv, work / "log", deadline)[0]
            problems, digest, risks = check_quantize(out, layers, method)
            expect(rc == 0 and not problems and len(risks) == 2, f"{method}: clean outputs pass ({problems})")
            for name, offset in (("dequant", -1), ("codes", -1), ("scales", -1)):
                bad = work / f"{method}-{name}"
                shutil.copytree(out, bad)
                flip_byte(bad / f"layer_001.{name}.sqt", offset)
                problems_bad, digest_bad, _ = check_quantize(bad, layers, method)
                expect(bool(problems_bad) and digest_bad != digest, f"{method}: one flipped byte in {name} fails ({problems_bad})")

        out = work / "verify.json"
        argv = ["-m", "sarqc.cli", "verify", "--suite", "compensation", "--trials", "20", "--inject-fault", "--out", str(out)]
        run.spawn(argv, work / "log", deadline)
        expect(bool(check_verify(out, "compensation", 20)[0]), "a failing verify suite fails the check")

        sys.path.insert(0, str(run.SRC))
        import sarqc.cli as cli
        import sarqc.gbs
        from tracer import Tracer

        plain_gram = sarqc.gbs.gram
        with Tracer() as tr:
            expect(sarqc.gbs.gram is not plain_gram, "the tracer patches from-import bindings")
            rc = tr.root(cli.main, ["quantize", "--method", "gptq", "--manifest", str(manifest), "--out", str(work / "traced")])
        expect(sarqc.gbs.gram is plain_gram, "the tracer restores the originals")
        counts = tr.call_counts()
        m = tr.metrics(["linalg.chol_upper_of_inverse.calls", "gbs.run_gbs.self_ms", "cli.layer_ms.max"])
        expect(rc == 0 and counts.get("cli._quantize_one") == 2 and m["linalg.chol_upper_of_inverse.calls"] == 2,
               f"traced gptq records every layer and factor ({counts})")
        expect(all(v >= 0.0 for v in tr.self_ms().values()), "self times are non-negative")
        expect(check_quantize(work / "traced", layers, "gptq")[1] == check_quantize(work / "gptq", layers, "gptq")[1],
               "tracing leaves the outputs unchanged")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
