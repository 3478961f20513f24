module fraz/benchmark

go 1.21

require fraz v0.0.0

replace fraz => ../
