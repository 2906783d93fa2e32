//! BAD fixture when linted outside `httpwire` and `core`: a bench's own
//! keep-alive client, which writes request heads it built itself and reads
//! each response with the wire codec's head readers instead of driving the
//! client's exchange. Expected findings: one-client at lines 21 and 27.

pub struct RawConn {
    writer: BoxedStream,
    reader: BufReader<BoxedStream>,
}

impl RawConn {
    /// Send one GET (does not read the response).
    pub fn send_get(&mut self, host: &str, target: &str) -> std::io::Result<()> {
        let mut head = RequestHead::new(Method::Get, target);
        head.headers.set("Host", host);
        self.writer.write_all(&head.to_bytes())
    }

    /// Read one full response, interim 1xx responses skipped.
    pub fn read_response(&mut self) -> Result<(ResponseHead, Vec<u8>), WireError> {
        let start = StartReader::new(&Method::Get, false).read(&mut self.reader)?;
        Ok((start.head, BodyReader::new(&mut self.reader, start.body).read_all()?))
    }

    /// Read one interim head.
    pub fn read_interim(&mut self) -> Result<ResponseHead, WireError> {
        httpwire::parse::read_response_head(&mut self.reader)
    }
}
