package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestBuildReportAndSerialize(t *testing.T) {
	r, err := BuildReport(3, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table1) != 11 {
		t.Errorf("table1 rows = %d", len(r.Table1))
	}
	if len(r.Fig6_7) != 3 {
		t.Errorf("toffoli rows = %d", len(r.Fig6_7))
	}
	if len(r.Fig9_11) != 44 { // 11 benchmarks x 4 topologies
		t.Errorf("sweep rows = %d", len(r.Fig9_11))
	}
	if len(r.Fig12) == 0 || len(r.Scaling) == 0 || len(r.Ablation) == 0 {
		t.Error("missing sections")
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	// Round-trip.
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != 5 || len(back.Table1) != 11 {
		t.Errorf("round trip lost data: seed=%d table1=%d", back.Seed, len(back.Table1))
	}
	if back.Table1[0].Name != r.Table1[0].Name {
		t.Error("row ordering changed")
	}
}
