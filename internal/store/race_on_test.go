//go:build race

package store

// raceEnabled: under the race detector sync.Pool drops a share of Puts,
// so the checkout scratch is not steady-state and allocations rise.
const raceEnabled = true
