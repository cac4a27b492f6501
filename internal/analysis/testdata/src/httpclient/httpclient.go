// Fixture for the httpclient analyzer. Loaded by driver_test.go as a
// package under internal/server (flagged) and under internal/disc
// (clean: the rule is scoped to the networked packages).
package fixture

import (
	"net/http"
	"time"
)

func deadlineless() {
	_ = http.DefaultClient                                  // want httpclient
	resp, err := http.Get("http://content.example/app.xml") // want httpclient
	if err == nil {
		resp.Body.Close()
	}
	_ = &http.Client{Transport: http.DefaultTransport} // want httpclient
	_ = http.Client{}                                  // want httpclient
}

// A copy of a bounded client with its Timeout zeroed is deadline-less.
func zeroedCopy(client *http.Client) *http.Client {
	c := *client
	c.Timeout = 0 // want httpclient
	return &c
}

func bounded() {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://content.example/app.xml")
	if err == nil {
		resp.Body.Close()
	}
	_ = http.Client{Timeout: 5 * time.Second, Transport: http.DefaultTransport}
}

// Replacing a copy's Timeout with another deadline keeps it bounded.
func retimedCopy(client *http.Client) *http.Client {
	c := *client
	c.Timeout = 30 * time.Second
	return &c
}
