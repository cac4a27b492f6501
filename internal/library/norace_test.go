//go:build !race

package library_test

const raceEnabled = false
