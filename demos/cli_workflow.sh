#!/usr/bin/env bash
# Round trip through the command line: solve a radial problem, verify the
# stored profile, corrupt it and watch the verifier object, then run a
# small parameter sweep and verify one of its points, whose directory
# holds what solve writes.  Exit codes: 0 ok, 1 config error, 2 diverged,
# 3 a verification check failed, 4 no shooting bracket.
set -u

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/config.json" <<'EOF'
{
  "q": 5.0,
  "poly": {"a": [1.0, 1.0, 1.0], "b": [0.0, 0.0, 0.0], "c": 1.0,
           "eps_quartic": 0.0},
  "kernel_variant": "shifted",
  "grid": {"kind": "radial", "n_r": 400, "r_max": 40.0, "grading": 2.0},
  "damping": 1.0,
  "tol_fixed_point": 1e-10,
  "max_iters": 200,
  "seed": 3
}
EOF

echo "== solve =="
biharm solve --config "$WORK/config.json" --out "$WORK/run"
echo "exit $?"

echo
echo "== verify the stored profile =="
biharm verify --config "$WORK/config.json" \
    --profile "$WORK/run/profile.csv" --out "$WORK/check"
echo "exit $?"

echo
echo "== verify a corrupted profile (every second value doubled) =="
awk -F, 'NR == 1 {print; next} NR % 2 == 0 {printf "%s,%s\n", $1, $2 * 2; next} {print}' \
    "$WORK/run/profile.csv" > "$WORK/corrupt.csv"
biharm verify --config "$WORK/config.json" \
    --profile "$WORK/corrupt.csv" --out "$WORK/check_bad"
echo "exit $? (3 = checks failed, as it should)"

echo
echo "== closed-form battery =="
biharm verify --exact-q7 --out "$WORK/exact"
echo "exit $?"

echo
echo "== threshold bisection =="
biharm shoot --q 2 --bisect --r-end 3e3 --out "$WORK/shoot"
echo "exit $?"

echo
echo "== sweep over q =="
cat > "$WORK/sweep.json" <<EOF
{"base": $(cat "$WORK/config.json"), "grid": {"q": [4.0, 5.0, 6.0]}}
EOF
biharm sweep --config "$WORK/sweep.json" --out "$WORK/sweep" --threads 2
cat "$WORK/sweep/sweep.csv"

echo
echo "== verify a sweep point =="
biharm verify --config "$WORK/sweep/point_0000/config.json" \
    --profile "$WORK/sweep/point_0000/profile.csv" --out "$WORK/sweep_check"
echo "exit $?"
