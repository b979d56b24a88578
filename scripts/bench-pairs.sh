#!/usr/bin/env bash
# Paired benchmark runs: the working tree against a base commit.
#
#   scripts/bench-pairs.sh [-b base-ref] [-w workload] [-n pairs]
#                          [-s first-seed] [-o out-dir]
#
# Checks the base ref out into a temporary git worktree, then runs
# `python3 perfbench/run.py --trace 0` N times on each side, alternating
# which side runs first, with a fresh seed per pair (the same seed on both
# sides of a pair), each at perfbench's own run length. For every
# end-to-end metric in BENCHMARK.json it prints each side's median and
# quartiles, the median change, and how many pairs the working tree won
# (ties count for neither side). A gain holds when the working tree wins at
# least 9 pairs in 10 and the medians differ by more than the base's
# interquartile range. A metric whose run-to-run spread (either side's
# interquartile range over the base median) is wider than its bound is
# unresolved unless every working-tree run beats every base run. Every
# run's result line is kept in the output directory (-o, default a fresh
# temporary directory).
#
# Defaults: base HEAD, workload saturate, 10 pairs, first seed from the
# clock (printed, so a run can be repeated). Run from the
# repository root. Needs git, go and python3; nothing outside the standard
# toolchains.
set -euo pipefail

base=HEAD
workload=saturate
pairs=10
seed=""
out=""
while getopts "b:w:n:s:o:h" opt; do
	case $opt in
	b) base=$OPTARG ;;
	w) workload=$OPTARG ;;
	n) pairs=$OPTARG ;;
	s) seed=$OPTARG ;;
	o) out=$OPTARG ;;
	*)
		sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
		exit 2
		;;
	esac
done
if [[ ! -f go.mod || ! -f perfbench/run.py || ! -f BENCHMARK.json ]]; then
	echo "bench-pairs: run from the repository root" >&2
	exit 2
fi
seed=${seed:-$(($(date +%s) % 1000000))}
out=${out:-$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")}
mkdir -p "$out"

rev=$(git rev-parse --verify "$base^{commit}")
tree=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs-base.XXXXXX")
cleanup() {
	git worktree remove --force "$tree" >/dev/null 2>&1 || rm -rf "$tree"
	git worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$tree" "$rev"

echo "# bench-pairs: base $base ($rev) vs working tree, workload $workload," \
	"$pairs pairs, seeds $seed..$((seed + pairs - 1)), results in $out"

# run <side> <dir> <seed>: one benchmark run; its result line goes to
# $out/<side>.jsonl prefixed by the seed.
run() {
	local line
	if ! line=$(cd "$2" && python3 perfbench/run.py --workload "$workload" \
		--seed "$3" --trace 0 2>>"$out/$1.stderr" | tail -n 1); then
		echo "bench-pairs: $1 run with seed $3 failed (see $out/$1.stderr)" >&2
	fi
	printf '%s\t%s\n' "$3" "$line" >>"$out/$1.jsonl"
	echo "#   $1 seed $3: $line"
}

: >"$out/base.jsonl"
: >"$out/change.jsonl"
for ((i = 0; i < pairs; i++)); do
	s=$((seed + i))
	if ((i % 2 == 0)); then
		run base "$tree" "$s"
		run change . "$s"
	else
		run change . "$s"
		run base "$tree" "$s"
	fi
done

python3 - "$out" <<'EOF'
import json
import statistics
import sys

out = sys.argv[1]
with open("BENCHMARK.json") as f:
    metrics = json.load(f)["end_to_end"]


def load(side):
    runs = {}
    with open(f"{out}/{side}.jsonl") as f:
        for row in f:
            seed, _, line = row.rstrip("\n").partition("\t")
            try:
                runs[seed] = json.loads(line)
            except ValueError:
                runs[seed] = None
    return runs


base, change = load("base"), load("change")
bad = [(side, seed) for side, runs in (("base", base), ("change", change))
       for seed, r in runs.items()
       if r is None or not r.get("correct") or r.get("failed")]
for side, seed in bad:
    print(f"# {side} seed {seed}: incorrect, failed or missing run", file=sys.stderr)
seeds = [s for s in base if s in change and base[s] and change[s]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def side(xs):
    q1, med, q3 = quartiles(xs)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


print(f"{'metric':<16} {'base median [Q1, Q3]':<32} {'change median [Q1, Q3]':<32} "
      f"{'delta':>7} {'wins':>5}  verdict")
for m in metrics if seeds else []:
    name, higher = m["name"], m["better"] == "higher"
    pb = [base[s]["metrics"][name]["value"] for s in seeds]
    pc = [change[s]["metrics"][name]["value"] for s in seeds]
    b1, bm, b3 = quartiles(pb)
    c1, cm, c3 = quartiles(pc)
    wins = sum((c > b) if higher else (c < b) for b, c in zip(pb, pc))
    gain = (cm - bm) if higher else (bm - cm)
    separated = min(pc) > max(pb) if higher else max(pc) < min(pb)
    if wins * 10 >= 9 * len(seeds) and gain > b3 - b1:
        verdict = "better"
    elif bm and -gain / bm > m["bound"]:
        verdict = f"worse than its {m['bound']:.0%} bound"
    elif bm and max(b3 - b1, c3 - c1) / bm > m["bound"] and not separated:
        verdict = "unresolved (spread > bound)"
    else:
        verdict = "not better, within bound"
    delta = f"{(cm - bm) / bm:+.1%}" if bm else "n/a"
    print(f"{name:<16} {side(pb):<32} {side(pc):<32} {delta:>7} "
          f"{wins:>2}/{len(seeds):<2}  {verdict}")
sys.exit(1 if bad else 0)
EOF
