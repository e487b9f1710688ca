// The benchmark is a module of its own so that it builds from its own
// directory and the root module's `go build ./...` / `go test ./...` do not
// depend on it. Its path sits under the root module's so it may import the
// root module's internal packages (the layers it measures).
module spaceodyssey/benchmark

go 1.24

require spaceodyssey v0.0.0

replace spaceodyssey => ../
