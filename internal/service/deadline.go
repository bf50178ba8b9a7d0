package service

import "time"

// SubmitOpts carries the admission-control metadata of a submit: who is
// asking (fairness identity), how long the answer is useful (deadline)
// and how long the job may sit queued (TTL).
type SubmitOpts struct {
	// Client is the fairness identity used for round-robin dequeue.
	// Empty means "default".
	Client string
	// Deadline bounds the whole job: queue wait plus simulation. When it
	// passes, a queued job is evicted and a running job's context is
	// cancelled. Zero means no deadline (beyond Options.DefaultDeadline).
	Deadline time.Duration
	// QueueTTL bounds only the queue wait: a job still queued when it
	// expires is evicted and never reaches a worker. Zero means no TTL.
	QueueTTL time.Duration
}

// expired reports whether the job has outlived its queue TTL or deadline
// at time now, with a human-readable reason. Only meaningful before the
// job starts running; a running job is bounded by its context deadline.
func (j *Job) expired(now time.Time) (string, bool) {
	if !j.queueDeadline.IsZero() && now.After(j.queueDeadline) {
		return "queue TTL expired before a worker was available", true
	}
	if !j.deadline.IsZero() && now.After(j.deadline) {
		return "deadline expired while queued", true
	}
	return "", false
}
