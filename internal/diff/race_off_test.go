//go:build !race

package diff

const raceEnabled = false
