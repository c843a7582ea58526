// The benchmark is a module of its own so that building, vetting and
// testing it never touches the parent module's tier-1 gate; the path
// keeps the hinfs/ prefix so it may import hinfs/internal/... .
module hinfs/benchmark

go 1.24

require hinfs v0.0.0

replace hinfs => ../
