//go:build race

package serve

// raceEnabled: the race detector allocates on its own, so allocation
// counts are not the program's.
const raceEnabled = true
