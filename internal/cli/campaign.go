package cli

import (
	"context"
	"fmt"
	"os"
	"sync"

	"dui/internal/campaign"
)

// DispatchCampaign runs a campaign spec through campaign.Dispatch —
// inline, or through the duid server named by o.Server — and returns the
// canonical result bytes plus the last progress snapshot (whose Resumed
// counts trials replayed from a journal). The two paths are
// byte-identical by construction; this helper only adds the drivers'
// shared stderr progress reporting, printed every 50 completed trials
// unless quiet. It installs its own o.OnProgress.
func DispatchCampaign(ctx context.Context, tool string, spec campaign.JobSpec, o campaign.DispatchOpts, quiet bool) ([]byte, campaign.Progress, error) {
	var mu sync.Mutex
	var last campaign.Progress
	lastDone := -1
	o.OnProgress = func(p campaign.Progress) {
		mu.Lock()
		defer mu.Unlock()
		last = p
		if quiet || p.Done == lastDone || (p.Done%50 != 0 && p.Done != p.Total) {
			return
		}
		lastDone = p.Done
		fmt.Fprintf(os.Stderr, "%s: %d/%d trials\n", tool, p.Done, p.Total)
	}
	res, err := campaign.Dispatch(ctx, spec, o)
	mu.Lock()
	defer mu.Unlock()
	return res, last, err
}
