//go:build race

package cnn

func init() { raceEnabled = true }
