//go:build !race

package pagefile

const raceEnabled = false
