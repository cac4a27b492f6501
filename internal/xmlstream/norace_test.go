//go:build !race

package xmlstream

const raceEnabled = false
