// Command lruow demonstrates §4.3 of the paper: the Long Running Unit Of
// Work model. An analyst spends a long time rehearsing changes to a
// product catalogue without holding a single lock; at performance time the
// work is confirmed only if its read predicates still hold. A concurrent
// price update invalidates the first rehearsal; the retry performs
// cleanly — optimistic long transactions with bounded lock windows.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/lruow"
	"github.com/extendedtx/activityservice/internal/lockmgr"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lruow:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	svc := activityservice.New()
	catalogue := lruow.NewStore()
	locks := lockmgr.New()
	catalogue.Put("widget/price", []byte("100"))
	catalogue.Put("widget/stock", []byte("50"))

	rehearse := func(name string) *lruow.UOW {
		u := lruow.Begin(svc, name, catalogue, locks, 100*time.Millisecond)
		price, _, _ := u.Read("widget/price")
		fmt.Printf("  [%s] rehearsal: read price=%s, planning 10%% discount\n", name, price)
		_ = u.Write("widget/price", []byte("90"))
		_ = u.Write("widget/discounted", []byte("true"))
		return u
	}

	fmt.Println("== rehearsal 1 (long-running, lock-free) ==")
	uow := rehearse("discount-1")

	// Meanwhile, someone else changes the price the rehearsal read.
	fmt.Println("  [interloper] price corrected to 120 while analyst works")
	catalogue.Put("widget/price", []byte("120"))

	fmt.Println("== performance 1 ==")
	err := uow.Complete(ctx)
	if !errors.Is(err, lruow.ErrStale) {
		return fmt.Errorf("expected stale rehearsal, got %v", err)
	}
	fmt.Println("  predicates stale -> work discarded, nothing written")
	if got, _, _ := catalogue.Get("widget/price"); string(got) != "120" {
		return fmt.Errorf("catalogue corrupted: %s", got)
	}

	fmt.Println("== rehearsal 2 (against current state) ==")
	uow2 := rehearse("discount-2")
	fmt.Println("== performance 2 ==")
	if err := uow2.Complete(ctx); err != nil {
		return err
	}
	price, _, _ := catalogue.Get("widget/price")
	disc, _, _ := catalogue.Get("widget/discounted")
	fmt.Printf("  performed: price=%s discounted=%s\n", price, disc)
	return nil
}
