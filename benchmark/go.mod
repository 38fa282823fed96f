module sound/benchmark

go 1.22

require sound v0.0.0

replace sound => ../
