package trace

import (
	"reflect"
	"testing"

	"mpichv/internal/sim"
)

func TestAddAccumulates(t *testing.T) {
	a := Stats{
		AppBytesSent: 100, AppMsgsSent: 2,
		PiggybackBytes: 40, PiggybackEvents: 3,
		HeaderBytes: 64, ControlBytes: 20, ControlMsgs: 1,
		SendPiggybackTime: 5 * sim.Microsecond,
		RecvPiggybackTime: 3 * sim.Microsecond,
		EventsCreated:     4, EventsLogged: 4,
		MaxHeldDeterminants: 7, MaxSenderLogBytes: 900,
		RecoveryEventCollection: sim.Millisecond,
		RecoveryTotal:           2 * sim.Millisecond,
		Recoveries:              1,
		Checkpoints:             2, CheckpointBytes: 2048,
	}
	b := Stats{
		AppBytesSent: 50, MaxHeldDeterminants: 3, MaxSenderLogBytes: 1500,
		Recoveries: 2,
	}
	a.Add(&b)
	if a.AppBytesSent != 150 {
		t.Errorf("AppBytesSent = %d", a.AppBytesSent)
	}
	if a.MaxHeldDeterminants != 7 {
		t.Errorf("MaxHeldDeterminants = %d (max, not sum)", a.MaxHeldDeterminants)
	}
	if a.MaxSenderLogBytes != 1500 {
		t.Errorf("MaxSenderLogBytes = %d (max, not sum)", a.MaxSenderLogBytes)
	}
	if a.Recoveries != 3 {
		t.Errorf("Recoveries = %d", a.Recoveries)
	}
}

// TestAddCoversEveryField sets each Stats field in turn on the addend alone:
// the total must take it, by sum or by max, and leave every other field
// zero. A field added to Stats but not to Add fails here.
func TestAddCoversEveryField(t *testing.T) {
	for _, f := range reflect.VisibleFields(reflect.TypeFor[Stats]()) {
		var total, o Stats
		reflect.ValueOf(&o).Elem().FieldByIndex(f.Index).SetInt(3)
		total.Add(&o)
		if total != o {
			t.Errorf("Add does not carry %s: total %+v, addend %+v", f.Name, total, o)
		}
	}
}

func TestPiggybackShare(t *testing.T) {
	s := Stats{}
	if s.PiggybackShare() != 0 {
		t.Error("zero traffic must give zero share")
	}
	s.AppBytesSent = 200
	s.PiggybackBytes = 50
	if got := s.PiggybackShare(); got != 0.25 {
		t.Errorf("share = %f, want 0.25", got)
	}
}
