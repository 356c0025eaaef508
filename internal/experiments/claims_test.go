package experiments

import "testing"

// TestCheckClaims: every headline claim passes at test scale when each
// claim is evaluated from its own experiment's result.
func TestCheckClaims(t *testing.T) {
	micro, cnn := testMicroConfig(), testCNNConfig()
	t1, err := Table1(micro)
	if err != nil {
		t.Fatal(err)
	}
	_, rows4a, err := Fig4a(micro)
	if err != nil {
		t.Fatal(err)
	}
	_, rows4b, err := Fig4b(micro)
	if err != nil {
		t.Fatal(err)
	}
	dense := NewDenseNet(cnn)
	fig5, err := Fig5(dense)
	if err != nil {
		t.Fatal(err)
	}
	_, t2rows, err := Table2(dense)
	if err != nil {
		t.Fatal(err)
	}
	study, err := RunGraphStudy(testGraphConfig())
	if err != nil {
		t.Fatal(err)
	}
	claims := []Claim{
		ClaimC1(t1),
		ClaimC2(BestEffective(rows4a), BestEffective(rows4b)),
		ClaimC3(fig5),
		ClaimC4(t2rows),
		ClaimC5(study),
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("%s FAILED: %s — expected %s, measured %s", c.ID, c.Text, c.Expected, c.Measured)
		}
	}
	if table := ClaimsTable(claims); len(table.Rows) != len(claims) {
		t.Errorf("table rows %d != claims %d", len(table.Rows), len(claims))
	}
}
