#!/bin/sh
# The console-script goldens, one list for every CI job:
#
#     sh .github/console-goldens.sh OUT
#
# runs the brightghz found on PATH from the repository root.  The photon
# statistics (table1, pk_curve) must match tests/data/cli byte for byte.
# The Stokes commands must exit 0; their CSVs land in OUT/stokes under
# their golden's name, for a caller that compares them by its own rule.
set -eu
out=$1
mkdir -p "$out/stokes"

# name, then the command's arguments: byte for byte against the golden
exact() {
    name=$1
    shift
    brightghz "$@" > "$out/$name.csv"
    cmp "$out/$name.csv" "tests/data/cli/$name.csv"
}

# as exact, for a grid with a point flagged diverged: the command exits 2
exact_diverged() {
    name=$1
    shift
    code=0
    brightghz "$@" > "$out/$name.csv" || code=$?
    [ "$code" -eq 2 ]
    cmp "$out/$name.csv" "tests/data/cli/$name.csv"
}

# name, then the command's arguments: written for the caller
stokes() {
    name=$1
    shift
    brightghz "$@" > "$out/stokes/$name.csv"
}

exact table1 --cmd table1
exact pk_curve_n3 --cmd pk_curve --n 3 --steps 2
exact pk_curve_n3_order60 --cmd pk_curve --n 3 --steps 2 --pade-order 60 --bits 320
exact pk_curve_n3_bits64 --cmd pk_curve --n 3 --steps 3 --bits 64
exact_diverged pk_curve_n3_cutoff8 --cmd pk_curve --n 3 --steps 3 --cutoff 8
exact pk_curve_n1_gain0_cutoff4 --cmd pk_curve --n 1 --gamma-min 0 --gamma-max 0.1 --steps 2 --cutoff 4
exact pk_curve_n1 --cmd pk_curve --n 1 --steps 3
exact pk_curve_n2 --cmd pk_curve --n 2 --steps 3
exact pk_curve_n1_dense --cmd pk_curve --n 1 --gamma-min 0.01 --gamma-max 0.85 --steps 29
exact pk_curve_n2_dense --cmd pk_curve --n 2 --gamma-min 0.01 --gamma-max 0.85 --steps 29
stokes mermin_crossing --cmd mermin --gamma-min 0.7 --gamma-max 0.8 --steps 3
stokes eta_window --cmd eta --gamma-min 0.45 --gamma-max 0.85 --steps 3 --eta-max 0.9
stokes eta_cap --cmd eta --gamma-min 0.352 --steps 1
stokes w1_projected --cmd w1 --gamma-min 0.1 --gamma-max 0.3 --steps 2 --projected
stokes w2_projected --cmd w2 --gamma-min 0.1 --gamma-max 0.3 --steps 2 --projected
stokes w2_unprojected --cmd w2 --gamma-min 0.1 --gamma-max 0.35 --steps 2
