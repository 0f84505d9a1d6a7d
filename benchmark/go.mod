// The benchmark is a module of its own so that it builds from its own
// directory and the root module's `go build ./...` / `go test ./...` stay
// untouched. Its import path sits under repro/ so it may import the
// engine's internal packages; the replace points at the enclosing checkout.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
