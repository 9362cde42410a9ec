module memsnap/benchmark

go 1.22

require memsnap v0.0.0

replace memsnap => ../
