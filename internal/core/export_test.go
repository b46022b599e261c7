package core

// Test helpers shared with the external core_test package.
var (
	NewTestPlatform = newTestPlatform
	MusicSource     = musicSource
)
