// The benchmark is a module of its own so that the tier-1 gate of the
// parent module (go build ./... && go test ./...) never depends on it.
// Its path sits under repro/ so it may import repro/internal/...
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
