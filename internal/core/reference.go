//go:build reference

package core

// Built with -tags reference, every System takes the per-line path
// (see perLineReference).
func init() { perLineReference = true }
