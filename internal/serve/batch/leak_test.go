package batch

import (
	"testing"

	"cbma/internal/leaktest"
)

// TestMain fails the package run if any test leaves a goroutine behind —
// every executor must be collected by Close's drain.
func TestMain(m *testing.M) {
	leaktest.Main(m)
}
