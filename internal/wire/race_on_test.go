//go:build race

package wire

// raceEnabled: under the race detector sync.Pool drops a share of Puts,
// so a decode sometimes regrows its scratch and allocation counts rise.
const raceEnabled = true
