package core_test

import (
	"testing"

	"clockroute/api"
	"clockroute/internal/core"
)

// TestCurveCacheCoversAPIWidthLadders pins the curve cache's bound to the
// traffic the API admits: two nets' full wire-width ladders, each besides
// its nominal model, must fit without evicting one another.
func TestCurveCacheCoversAPIWidthLadders(t *testing.T) {
	if want := 2 * (1 + api.MaxWireWidths); core.MaxCurveSets < want {
		t.Fatalf("curve cache holds %d models; two %d-width ladders and their nominal models need %d",
			core.MaxCurveSets, api.MaxWireWidths, want)
	}
}
