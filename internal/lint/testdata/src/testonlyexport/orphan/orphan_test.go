package orphan

import "testing"

func TestHelper(t *testing.T) { Helper() }
