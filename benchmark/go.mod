module mrbc/benchmark

go 1.22

require mrbc v0.0.0

replace mrbc => ../
