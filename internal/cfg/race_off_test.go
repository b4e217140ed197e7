//go:build !race

package cfg

const raceEnabled = false
