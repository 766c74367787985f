#!/bin/sh
# Regenerates every recorded result in results/. Sizes are chosen to finish
# in a few minutes on a laptop; raise -n toward the paper's 16M for tighter
# numbers. CI's results-fresh job reruns this and fails on any diff.
set -e
cd "$(dirname "$0")/.."
go run ./cmd/study -fig 2        -n 1000000            > results/fig2.txt
go run ./cmd/study -fig table3   -n 1000000            > results/table3.txt
go run ./cmd/study -fig 4        -n 200000             > results/fig4.txt
go run ./cmd/study -fig 6        -n 20000              > results/fig6_shapes.txt
go run ./cmd/study -fig 9        -n 100000             > results/fig9.txt
go run ./cmd/study -fig 10                             > results/fig10.txt
go run ./cmd/study -fig 11       -n 200000             > results/fig11.txt
go run ./cmd/study -fig memsim   -n 100000             > results/memsim.txt
go run ./cmd/study -fig 12       -n 200000             > results/fig12.txt
go run ./cmd/study -fig 13       -n 200000             > results/fig13.txt
go run ./cmd/study -fig 14       -n 200000             > results/fig14.txt
go run ./cmd/study -fig 15       -n 100000             > results/fig15.txt

# Extension studies (features the paper names but does not evaluate).
go run ./cmd/study -fig measures -n 50000              > results/measures.txt
go run ./cmd/study -fig density  -n 100000             > results/density.txt
go run ./cmd/study -fig robust   -n 50000              > results/robust.txt
go run ./cmd/study -fig memsim   -n 30000 -seq 0.6     > results/memsim_seq.txt
echo DONE
