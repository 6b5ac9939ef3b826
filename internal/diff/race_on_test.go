//go:build race

package diff

// raceEnabled: under the race detector sync.Pool drops a share of Puts,
// so Compute's scratch is not steady-state and allocation counts rise.
const raceEnabled = true
