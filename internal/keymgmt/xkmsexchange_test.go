package keymgmt

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"discsec/internal/resilience"
	"discsec/internal/xmldom"
)

// validResult is a ValidateResult that reports a binding Valid.
func validResult() []byte {
	res := newResult("ValidateResult", resultSuccess)
	res.Root().CreateChild(xkmsPrefix + ":Status").SetText(string(StatusValid))
	return res.Bytes()
}

// TestLocateRefusesMismatchedName: an endpoint that reports alice Valid
// but answers Locate("alice") with bob's binding is refused with a
// terminal error, and nothing is cached, so an outage cannot later
// serve bob's certificate as alice's.
func TestLocateRefusesMismatchedName(t *testing.T) {
	bob := locateResult(&KeyBinding{Name: "bob", Certificate: fixture.author.Cert})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		doc, err := xmldom.ParseBytes(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if doc.Root().Local == "ValidateRequest" {
			w.Write(validResult())
			return
		}
		w.Write(bob)
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL, Retry: fastXKMSPolicy(), MaxStale: time.Hour}

	if _, err := c.PublicKeyByName("alice"); err == nil {
		t.Fatal("PublicKeyByName(alice) returned bob's key")
	}
	_, err := c.Locate("alice")
	if err == nil || resilience.IsTransient(err) {
		t.Fatalf("Locate(alice) answered with bob's binding: err = %v, want a terminal error", err)
	}
	c.cacheMu.Lock()
	cached := len(c.cache)
	c.cacheMu.Unlock()
	if cached != 0 {
		t.Errorf("%d bindings cached from a mismatched answer", cached)
	}
}

// answer is an in-process XKMS endpoint: every request gets body back
// with 200 OK.
type answer []byte

func (a answer) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     http.Header{"Content-Type": {"application/xml"}},
		Body:       io.NopCloser(bytes.NewReader(a)),
		Request:    req,
	}, nil
}

// FuzzXKMSExchange feeds arbitrary bytes to both ends of the XKMS
// exchange: as a request to Handler.handle (over a fresh Service, so no
// input changes what the next one sees), and as the endpoint's answer
// to the client's LocateContext and ValidateContext. Neither end may
// panic, and the client may succeed only when the answer's ResultMajor
// is Success and, for a locate, the binding names the key requested.
func FuzzXKMSExchange(f *testing.F) {
	const name = "author"
	for _, seed := range [][]byte{
		newRequest("LocateRequest", name).Bytes(),
		newRequest("ValidateRequest", name).Bytes(),
		newRequest("RevokeRequest", name).Bytes(),
		locateResult(&KeyBinding{Name: name, Certificate: fixture.author.Cert}),
		locateResult(&KeyBinding{Name: "bob", Certificate: fixture.author.Cert}),
		locateResult(&KeyBinding{Name: name, Certificate: fixture.author.Cert, Revoked: true}),
		validResult(),
		errorResult("LocateResult", errors.New("no such binding")),
		[]byte(`<xkms:LocateResult xmlns:xkms="http://www.w3.org/2002/03/xkms#" ResultMajor="Success"/>`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		(&Handler{Service: NewService(fixture.root.Pool())}).handle(data)

		c := &Client{
			BaseURL:    "http://xkms.test/",
			HTTPClient: &http.Client{Transport: answer(data)},
			Retry:      &resilience.Policy{MaxAttempts: 1},
		}
		ctx := context.Background()
		kb, lerr := c.LocateContext(ctx, name)
		_, _, verr := c.ValidateContext(ctx, name)
		if lerr != nil && verr != nil {
			return
		}
		doc, err := xmldom.ParseBytes(data)
		if err != nil {
			t.Fatalf("client accepted an unparsable answer (locate err %v, validate err %v)", lerr, verr)
		}
		if major := doc.Root().AttrValue("ResultMajor"); major != resultSuccess {
			t.Fatalf("client accepted ResultMajor %q (locate err %v, validate err %v)", major, lerr, verr)
		}
		if lerr == nil {
			kbEl := doc.Root().FirstChildElement("KeyBinding")
			if kbEl == nil || kbEl.AttrValue("Name") != name || kb.Name != name || kb.Certificate == nil {
				t.Fatalf("Locate(%q) accepted %q", name, data)
			}
		}
	})
}
