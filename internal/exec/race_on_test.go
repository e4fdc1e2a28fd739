//go:build race

package exec_test

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put into it, so pooled scratch is not allocation-free there.
const raceEnabled = true
