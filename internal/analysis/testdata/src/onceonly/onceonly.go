// Fixture for the onceonly analyzer: one-shot readers must not be
// consumed twice or re-wrapped after a partial read.
package fixture

import (
	"bufio"
	"io"
	"net/http"

	"discsec/internal/xmldom"
)

// Consumed twice: the second ReadAll sees only EOF.
func readTwice(r io.Reader) ([]byte, []byte) {
	first, _ := io.ReadAll(r)
	second, _ := io.ReadAll(r) // want onceonly
	return first, second
}

// Consumed twice through a module verification entry.
func parseTwice(r io.Reader) error {
	if _, err := xmldom.Parse(r); err != nil {
		return err
	}
	_, err := xmldom.Parse(r) // want onceonly
	return err
}

// Re-wrapped after a partial read: the bufio.Reader presents a
// beheaded stream as a whole document.
func rewrapAfterSniff(r io.Reader) (*bufio.Reader, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	return bufio.NewReader(r), nil // want onceonly
}

// Re-wrapped after being fully consumed.
func wrapAfterConsume(r io.Reader) io.Reader {
	_, _ = io.ReadAll(r)
	return io.LimitReader(r, 10) // want onceonly
}

// counting is a byte-counting struct wrapper: it carries the wrapped
// reader's one-shot identity.
type counting struct {
	r io.Reader
	n int64
}

func (c *counting) Read(p []byte) (int, error) {
	m, err := c.r.Read(p)
	c.n += int64(m)
	return m, err
}

// Consuming through the struct alias and then the original is still a
// double consume.
func aliasThroughStruct(r io.Reader) ([]byte, []byte) {
	cr := &counting{r: r}
	first, _ := io.ReadAll(cr)
	second, _ := io.ReadAll(r) // want onceonly
	return first, second
}

// A request body is one-shot even without passing through a parameter.
func handleTwice(w http.ResponseWriter, req *http.Request) {
	raw, _ := io.ReadAll(req.Body)
	_, _ = io.ReadAll(req.Body) // want onceonly
	_ = raw
}

// drain consumes its parameter; the interprocedural summary carries
// that to every call site.
func drain(r io.Reader) {
	_, _ = io.Copy(io.Discard, r)
}

func drainThenParse(r io.Reader) (*xmldom.Document, error) {
	drain(r)
	return xmldom.Parse(r) // want onceonly
}

// Clean twin: wrap once, consume once — the server /verify shape.
func wrapOnce(w http.ResponseWriter, req *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, req.Body, 1<<20)
	return io.ReadAll(body)
}

// Clean twin: a partial read followed by a full consume resumes the
// same stream; nothing is re-framed.
func sniffThenRead(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

// Clean twin: branch-exclusive consumption — only one consume per path.
func eitherOr(dst io.Writer, r io.Reader, spool bool) error {
	if spool {
		_, err := io.Copy(dst, r)
		return err
	}
	_, err := io.ReadAll(r)
	return err
}

// Clean twin: a manual read loop is a sequence of partial reads of the
// same stream, not a re-consume.
func manualLoop(r io.Reader) (n int) {
	buf := make([]byte, 512)
	for {
		m, err := r.Read(buf)
		n += m
		if err != nil {
			return n
		}
	}
}
