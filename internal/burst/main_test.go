package burst

import (
	"os"
	"testing"
)

// Every test of this package runs with the poison hook on (session.go): a
// payload kept past HandleFrame, or bytes kept past Release, read 0xDB.
func TestMain(m *testing.M) {
	poison = "on"
	os.Exit(m.Run())
}
