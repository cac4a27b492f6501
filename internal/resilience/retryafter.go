package resilience

import (
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ParseRetryAfter reads an HTTP Retry-After header value in either of
// its two standard forms — delta-seconds ("120") or an HTTP-date
// ("Fri, 07 Aug 2026 09:30:00 GMT") — returning the backoff floor to
// honor. 0 means absent or unusable (including a date already in the
// past). Every client-side classification path uses this one parser so
// the two forms behave identically across the downloader and the trust
// client.
func ParseRetryAfter(h string) time.Duration {
	return ParseRetryAfterAt(h, time.Now())
}

// ParseRetryAfterAt is ParseRetryAfter against an explicit current
// time, for deterministic tests of the HTTP-date form.
func ParseRetryAfterAt(h string, now time.Time) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.ParseInt(h, 10, 64); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// ClassifyStatus marks err, the caller's description of an HTTP
// exchange that answered with a status it does not accept, by that
// status: 5xx and 429 are transient, carrying the response's
// Retry-After as a backoff floor; every other status is terminal.
// The Downloader, the XKMS client and the cluster exchanges share this
// one rule.
func ClassifyStatus(resp *http.Response, err error) error {
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		return WithRetryAfter(Transient(err), ParseRetryAfter(resp.Header.Get("Retry-After")))
	}
	return Terminal(err)
}
