module pvoronoi/benchmark

go 1.24

require pvoronoi v0.0.0

replace pvoronoi => ../
