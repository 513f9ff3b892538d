package harness

import (
	"context"
	"strings"
	"testing"

	"microbandit/internal/simsmt"
	"microbandit/internal/smtwork"
)

func TestSMTCtrlNames(t *testing.T) {
	if s, err := SMTCtrl("bandit", 1); err != nil || s.Ctrl == nil {
		t.Errorf("bandit = %+v, %v; want a controller", s, err)
	}
	for name, want := range map[string]SMTSpec{
		"choi":             {Policy: simsmt.ChoiPolicy, HillClimb: true},
		"icount":           {Policy: simsmt.ICountPolicy},
		"policy:LSQC_1111": {Policy: simsmt.Table1Arms()[4], HillClimb: true},
	} {
		if s, err := SMTCtrl(name, 1); err != nil || s != want {
			t.Errorf("%s = %+v, %v; want %+v", name, s, err, want)
		}
	}
	for _, name := range []string{"bogus", "policy:XX_1111", "Choi"} {
		if _, err := SMTCtrl(name, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	_, err := SMTCtrl("bogus", 1)
	if !strings.Contains(err.Error(), "bandit, choi, icount, policy:<mnemonic>") {
		t.Errorf("error %q does not list the valid forms", err)
	}
}

// TestSimSMTCancelled: under an already-cancelled Ctx, SimSMT runs no
// epoch for any runner kind and returns a runner whose statistics read
// as an empty run.
func TestSimSMTCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := tiny()
	o.Ctx = ctx
	mix := smtwork.TuneMixes()[0]
	for name, s := range map[string]SMTSpec{
		"bandit": {Ctrl: simsmt.NewBanditAgent(1), RecordArms: true},
		"choi":   {Policy: simsmt.ChoiPolicy, HillClimb: true},
		"icount": {Policy: simsmt.ICountPolicy},
		"arpa":   {Policy: simsmt.ChoiPolicy, ARPA: true},
	} {
		s.Mix, s.Seed = mix, 1
		r := o.SimSMT(s)
		if c := r.Sim.Cycle(); c != 0 {
			t.Errorf("%s: ran %d cycles after cancellation", name, c)
		}
		if ipc, rs := r.Sim.SumIPC(), r.Sim.RenameStats(); ipc != 0 || rs.Total() != 0 {
			t.Errorf("%s: sum IPC %v, %d rename cycles; want an empty run", name, ipc, rs.Total())
		}
		if m := simsmt.Evaluate(r.Sim, [2]float64{1, 1}); m.SumIPC != 0 {
			t.Errorf("%s: Evaluate = %+v; want zero", name, m)
		}
	}
}

// TestFig13Cancelled: with a cancelled Ctx and an error log, Fig. 13
// records every unstarted job and renders its empty result.
func TestFig13Cancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := tiny()
	o.Ctx = ctx
	o.Errs = NewErrorLog()
	res := Fig13(o)
	if len(res.Ratios) != 0 {
		t.Errorf("%d ratios from a cancelled run", len(res.Ratios))
	}
	if want := 3 * len(o.mixes(smtwork.Mixes())); o.Errs.Len() != want {
		t.Errorf("error log holds %d failures, want %d", o.Errs.Len(), want)
	}
	if !strings.Contains(res.Render(), "Fig. 13") {
		t.Error("render incomplete")
	}
}
