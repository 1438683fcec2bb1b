//go:build race

package bmacproto

func init() { raceEnabled = true }
