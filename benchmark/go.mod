module bmac/benchmark

go 1.24

require bmac v0.0.0

replace bmac => ../
