package dataset

import "testing"

func TestProfileStatisticsMatchPaper(t *testing.T) {
	cases := []struct {
		p         *Profile
		nodeTypes int
		edgeTypes int
		gfdCount  int
	}{
		{DBpedia(), 200, 160, 8000},
		{YAGO2(), 13, 36, 6000},
		{Pokec(), 269, 11, 10000},
	}
	for _, c := range cases {
		if len(c.p.NodeLabels) != c.nodeTypes {
			t.Errorf("%s node types = %d, want %d", c.p.Name, len(c.p.NodeLabels), c.nodeTypes)
		}
		if len(c.p.EdgeLabels) != c.edgeTypes {
			t.Errorf("%s edge types = %d, want %d", c.p.Name, len(c.p.EdgeLabels), c.edgeTypes)
		}
		if c.p.GFDCount != c.gfdCount {
			t.Errorf("%s GFD count = %d, want %d", c.p.Name, c.p.GFDCount, c.gfdCount)
		}
	}
	if len(All()) != 3 {
		t.Error("All() should return the three paper datasets")
	}
}
