//go:build race

package xq

func init() { RaceEnabled = true }
