//go:build !race

package c14n

const raceEnabled = false
