// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive points at the repository it measures.
module mpichv/benchmark

go 1.24

require mpichv v0.0.0

replace mpichv => ../
