#!/usr/bin/env python3
"""Noise check: do two sets of runs of the same code agree within the bounds?

Runs the command of BENCHMARK.json N sets x M runs per workload, the
workloads alternating inside a set and every run on its own seed, and prints
for each end-to-end metric x workload each set's median and quartiles, the
spread (Q3-Q1)/median the contract limits, how far the sets' medians lie
apart in either direction, and PASS/FAIL against the metric's bound. The
contract's own limits are spread <= bound and second median not worse than
the first by more than the bound; this check is stricter: the disagreement
counts whichever set is the better one, and a spread above a third of the
bound or a disagreement above half of it is flagged (WIDE), which is what
the issue asks bounds to be sized for.

Every time the benchmark reports is scaled by a host factor; each run also
prints the same quantity as measured. The last two columns judge those by
the same rules, so that the table shows, on the same runs, what the factor
buys.

    python3 benchmark/noise.py [-sets 2] [-runs 10] [-out benchmark/NOISE.md]

Run it from the root of the checkout, on an otherwise idle host.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-sets", type=int, default=2)
    ap.add_argument("-runs", type=int, default=10)
    ap.add_argument("-out", default="")
    ap.add_argument("-workloads", default="", help="comma-separated subset")
    ap.add_argument("-keep", default="", help="directory to keep every run's output in")
    args = ap.parse_args()
    if args.sets < 2 or args.runs < 5:
        sys.exit("need -sets >= 2 and -runs >= 5")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    metrics = spec["end_to_end"]

    # values[workload][metric][set] = [v, ...]; raw likewise, for the metrics
    # the run also prints as measured
    values = {w: {m["name"]: [[] for _ in range(args.sets)] for m in metrics} for w in names}
    raw = {w: {} for w in names}
    t0 = time.time()
    for s in range(args.sets):
        for r in range(args.runs):
            seed = 1 + s * args.runs + r
            for w in names:
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                t1 = time.time()
                p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                if p.returncode != 0:
                    sys.exit("run failed: %s\n%s\n%s" % (" ".join(cmd), p.stdout[-2000:], p.stderr[-2000:]))
                if args.keep:
                    os.makedirs(args.keep, exist_ok=True)
                    with open(os.path.join(args.keep, "set%d-run%02d-%s.txt" % (s + 1, r + 1, w)), "w") as f:
                        f.write(p.stdout)
                lines = p.stdout.strip().splitlines()
                res = json.loads(lines[-1])
                if not res["correct"] or res["failed"]:
                    sys.exit("incorrect run: %s" % p.stdout[-2000:])
                for m in metrics:
                    values[w][m["name"]][s].append(res["metrics"][m["name"]]["value"])
                for line in lines:
                    if line.startswith("# as-measured "):
                        for k, v in json.loads(line[len("# as-measured "):]).items():
                            raw[w].setdefault(k, [[] for _ in range(args.sets)])[s].append(v)
                print("set %d run %d %-12s seed %-3d %5.1f s" % (s + 1, r + 1, w, seed, time.time() - t1),
                      file=sys.stderr, flush=True)

    def judge(sets):
        """Medians, quartiles, largest spread and largest disagreement of the sets."""
        cells, spreads, meds = [], [], []
        for v in sets:
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            cells.append("%.5g [%.5g, %.5g]" % (med, q1, q3))
            spreads.append((q3 - q1) / med)
            meds.append(med)
        apart = max(abs(x - meds[0]) / min(x, meds[0]) for x in meds[1:])
        return cells, max(spreads), apart

    out = []
    out.append("# Noise check: %d sets x %d runs per workload, %d s timed phase each" %
               (args.sets, args.runs, spec["run_seconds"]))
    out.append("")
    out.append("Produced by `python3 benchmark/noise.py -sets %d -runs %d` in %.0f s of wall time; every run has its own seed." %
               (args.sets, args.runs, time.time() - t0))
    out.append("`spread` is (Q3-Q1)/median of one set (`statistics.quantiles(v, n=4)`), the largest over the sets;")
    out.append("`apart` is |later set's median - first set's median| / the smaller of the two, the largest over the sets, whichever set is the better.")
    out.append("PASS: spread <= bound and apart <= bound. WIDE: passes, but spread > bound/3 or apart > bound/2. The contract does not limit the spread of `setup_s`.")
    out.append("`as measured` is the same quantity from the same runs before the host factor was applied, judged the same way.")
    out.append("")
    verdicts = {"PASS": 0, "WIDE": 0, "FAIL": 0}
    scaled, unscaled = [], []  # (spread, apart) of every cell that has both
    for w in names:
        out.append("## %s" % w)
        out.append("")
        head = "| metric | unit | " + " | ".join("set %d median [Q1, Q3]" % (s + 1) for s in range(args.sets))
        out.append(head + " | spread | apart | bound | verdict | as measured: spread | apart |")
        out.append("|---|---|" + "---|" * args.sets + "---|---|---|---|---|---|")
        for m in metrics:
            cells, spread, apart = judge(values[w][m["name"]])
            bound = m["bound"]
            is_setup = m["name"] == "setup_s"
            if (spread > bound and not is_setup) or apart > bound:
                verdict = "FAIL"
            elif (spread > bound / 3 and not is_setup) or apart > bound / 2:
                verdict = "WIDE"
            else:
                verdict = "PASS"
            verdicts[verdict] += 1
            asm = " | "
            if m["name"] in raw[w]:
                _, rspread, rapart = judge(raw[w][m["name"]])
                asm = "%.4f | %.4f" % (rspread, rapart)
                scaled.append((spread, apart))
                unscaled.append((rspread, rapart))
            out.append("| %s | %s | %s | %.4f | %.4f | %.2f | %s | %s |" %
                       (m["name"], m["unit"], " | ".join(cells), spread, apart, bound, verdict, asm))
        out.append("")
    out.append("Totals: %d PASS, %d WIDE, %d FAIL." % (verdicts["PASS"], verdicts["WIDE"], verdicts["FAIL"]))
    if scaled:
        out.append("")
        out.append("Host factor, over the %d cells reported both ways: largest spread %.4f with it and %.4f as measured "
                   "(lower with it in %d cells); largest distance between the sets %.4f with it and %.4f as measured "
                   "(lower with it in %d cells)." %
                   (len(scaled), max(x[0] for x in scaled), max(x[0] for x in unscaled),
                    sum(a[0] < b[0] for a, b in zip(scaled, unscaled)),
                    max(x[1] for x in scaled), max(x[1] for x in unscaled),
                    sum(a[1] < b[1] for a, b in zip(scaled, unscaled))))
    text = "\n".join(out) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    print(text)
    sys.exit(1 if verdicts["FAIL"] else 0)


if __name__ == "__main__":
    main()
