//! BAD fixture when linted outside `httpwire` and `core`: a bench client
//! that reads its responses with a head parser of its own instead of
//! driving the client's exchange. Expected findings: one-client at lines
//! 15 and 32, under any file name — fig7's real `evicted_with_408` is
//! exempt only by the marker on its own call.

impl ClientSession for HandRolledGet {
    fn poll(&mut self, io: &mut BoxedStream, now: Duration) -> io::Result<SessionPoll> {
        let mut buf = [0u8; 4096];
        loop {
            match io.try_read(&mut buf) {
                Ok(n) => {
                    self.head.extend_from_slice(&buf[..n]);
                    if let Some(end) = self.scan.find(&self.head)? {
                        let head = parse_response_head(&self.head[..end])?;
                        if head.status == StatusCode::OK {
                            return Ok(SessionPoll::Done);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(SessionPoll::Pending);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn evicted_with_408(resp: &[u8]) -> bool {
    let end = HeadScan::default().find(resp).ok().flatten();
    end.and_then(|end| parse_response_head(&resp[..end]).ok())
        .is_some_and(|head| head.status == StatusCode::REQUEST_TIMEOUT)
}

#[cfg(test)]
mod tests {
    fn parses(wire: &[u8]) {
        // Tests read what they like.
        parse_response_head(wire).unwrap();
    }
}
