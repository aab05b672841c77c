// Package orphan is imported by no non-test package: a test plane.
package orphan

// Helper is exported and uncalled, and not reported.
func Helper() {}
