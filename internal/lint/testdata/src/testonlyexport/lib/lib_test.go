package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	OnlyTested()
	Fixture()
	var b Box[string]
	b.Put("x")
	T{}.Unused()
}
