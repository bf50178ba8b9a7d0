package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/kit-ces/hayat/internal/persist"
	"github.com/kit-ces/hayat/internal/store"
)

// FuzzJournalReplay replays arbitrary bytes as a journal file: openJournal
// must never panic — it either fails cleanly or returns a journal whose
// pending entries all carry a submit op's mandatory fields. The replayed
// file is also compacted, so the rewrite path runs on hostile input too.
func FuzzJournalReplay(f *testing.F) {
	valid := func(rec journalRecord) []byte {
		payload, _ := json.Marshal(rec)
		line, _ := persist.EncodeFrameLine(payload)
		return append(line, '\n')
	}
	req := request{Kind: KindLifetime, Policy: "Hayat", Seed: 1, Chips: 1}
	f.Add([]byte(""))
	f.Add(valid(journalRecord{Op: opSubmit, ID: "job-000001", Key: req.key(), Req: &req}))
	f.Add(append(valid(journalRecord{Op: opSubmit, ID: "job-000001", Key: req.key(), Req: &req}),
		valid(journalRecord{Op: opDone, ID: "job-000001"})...))
	f.Add([]byte("hayatf1 deadbeef {\"op\":\"submit\"}\n"))
	f.Add([]byte("not a frame at all\nhayatf1"))
	f.Add(valid(journalRecord{Op: "mystery", ID: "job-000009"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, pending, _, err := openJournal(path)
		if err != nil {
			return
		}
		defer j.Close()
		for _, e := range pending {
			if e.ID == "" {
				t.Fatal("replay surfaced a pending entry without an ID")
			}
		}
	})
}

// FuzzDecodeBatchRequest feeds arbitrary JSON to the POST /v1/batch
// decode-and-validate path: it must never panic, and every item it
// accepts must canonicalise to a well-formed cache key (acceptance is
// what admits the item into the coalesced journal write).
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"items":[]}`)
	f.Add(`{"items":[{"config":{"Rows":4,"Cols":4,"Years":1},"seed":1,"policy":"hayat"}]}`)
	f.Add(`{"items":[{"kind":"population","chips":3,"policy":"vaa","client":"ci"},{"policy":"bogus"}]}`)
	f.Add(`{"items":[{"config":null,"seed":-9223372036854775808,"deadline_ms":1,"queue_ttl_ms":-5}]}`)
	f.Add(`{"items":[{"kind":"lifetime","chips":2}]}`)
	f.Add(`{"items":[{"config":{"Rows":1e309}}],"extra":true}`)
	f.Fuzz(func(t *testing.T, raw string) {
		var req BatchRequest
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		for i, it := range req.Items {
			sub, err := batchSubmissionFromItem(it)
			if err != nil {
				continue
			}
			if !store.ValidKey(sub.key) {
				t.Fatalf("item %d accepted with malformed cache key %q", i, sub.key)
			}
			if sub.req.Chips < 1 {
				t.Fatalf("item %d accepted with %d chips", i, sub.req.Chips)
			}
		}
	})
}

// FuzzDecodeConfig feeds arbitrary JSON to the HTTP config decoder: it
// must never panic, and any config it accepts that also validates must
// produce a well-formed cache key (the canonicalisation pipeline must not
// choke on values that merely decoded).
func FuzzDecodeConfig(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"Rows":4,"Cols":4,"Years":1}`)
	f.Add(`null`)
	f.Add(`{"Rows":1e309}`)
	f.Add(`{"FreqLadderGHz":[0.5,1,2],"DutyMode":"worst"}`)
	f.Add(`{"Years":-1,"AgingModel":"nbti+hci"}`)
	f.Fuzz(func(t *testing.T, raw string) {
		cfg, err := decodeConfig(json.RawMessage(raw))
		if err != nil {
			return
		}
		cfg = NormalizeConfig(cfg)
		if err := cfg.Validate(); err != nil {
			return
		}
		req := request{Kind: KindLifetime, Config: cfg, Policy: "Hayat", Seed: 1, Chips: 1}
		if key := req.key(); !store.ValidKey(key) {
			t.Fatalf("validated config produced malformed cache key %q", key)
		}
	})
}
