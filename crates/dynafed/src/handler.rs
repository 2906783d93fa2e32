//! The federation's HTTP face: Metalink responses and 302 redirects.

use crate::catalog::ReplicaCatalog;
use httpd::{Request, Response};
use httpwire::{Method, StatusCode};
use objstore::handler::wants_metalink;
use std::sync::Arc;

/// Handler for a federated namespace mounted under a prefix.
///
/// * `GET /prefix/path?metalink` (or `Accept: application/metalink4+xml`)
///   → `200` with the Metalink of the live replicas;
/// * `GET|HEAD /prefix/path` → `302 Found` to the highest-priority live
///   replica (what DynaFed does for plain HTTP clients);
/// * unknown path or no live replica → `404`.
pub struct FedHandler {
    catalog: Arc<ReplicaCatalog>,
    prefix: String,
}

impl FedHandler {
    /// Build a handler for `prefix` (no trailing slash).
    pub fn new(catalog: Arc<ReplicaCatalog>, prefix: &str) -> FedHandler {
        FedHandler { catalog, prefix: prefix.trim_end_matches('/').to_string() }
    }
}

impl httpd::Handler for FedHandler {
    fn handle(&self, req: Request) -> Response {
        if req.head.method != Method::Get && req.head.method != Method::Head {
            return Response::error(StatusCode::METHOD_NOT_ALLOWED);
        }
        let decoded = req.decoded_path();
        let Some(path) = decoded.strip_prefix(&self.prefix) else {
            return Response::error(StatusCode::NOT_FOUND);
        };
        let path = if path.starts_with('/') { path.to_string() } else { format!("/{path}") };

        if wants_metalink(&req) {
            return match self.catalog.metalink(&path) {
                Some(ml) => Response::with_body(
                    StatusCode::OK,
                    metalink::METALINK_CONTENT_TYPE,
                    ml.to_xml().into_bytes(),
                ),
                None => Response::error(StatusCode::NOT_FOUND),
            };
        }

        match self.catalog.live_replicas(&path).first() {
            Some(best) => Response::empty(StatusCode::FOUND).header("Location", best.url.clone()),
            None => Response::error(StatusCode::NOT_FOUND),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Replica;
    use httpd::Handler;
    use httpwire::RequestHead;

    fn fed() -> FedHandler {
        let catalog = Arc::new(ReplicaCatalog::new());
        catalog.register("/data/f", Replica::new("http://dpm1/data/f", 1));
        catalog.register("/data/f", Replica::new("http://dpm2/data/f", 2));
        FedHandler::new(catalog, "/myfed")
    }

    fn get(target: &str, accept: Option<&str>) -> Request {
        let mut head = RequestHead::new(Method::Get, target);
        if let Some(a) = accept {
            head.headers.set("Accept", a);
        }
        Request { head, body: Vec::new(), peer: "t".into() }
    }

    #[test]
    fn redirects_to_best_replica() {
        let h = fed();
        let r = h.handle(get("/myfed/data/f", None));
        assert_eq!(r.status, StatusCode::FOUND);
        assert_eq!(r.headers.get("location"), Some("http://dpm1/data/f"));
    }

    #[test]
    fn metalink_by_query_and_accept() {
        let h = fed();
        for req in [
            get("/myfed/data/f?metalink", None),
            get("/myfed/data/f", Some(metalink::METALINK_CONTENT_TYPE)),
        ] {
            let r = h.handle(req);
            assert_eq!(r.status, StatusCode::OK);
            let ml = metalink::Metalink::parse(core::str::from_utf8(&r.body).unwrap()).unwrap();
            assert_eq!(ml.files[0].urls.len(), 2);
        }
    }

    #[test]
    fn dead_replicas_fall_out_of_answers() {
        let catalog = Arc::new(ReplicaCatalog::new());
        catalog.register("/f", Replica::new("http://a/f", 1));
        catalog.register("/f", Replica::new("http://b/f", 2));
        catalog.mark_host("a", false);
        let h = FedHandler::new(Arc::clone(&catalog), "");
        let r = h.handle(get("/f", None));
        assert_eq!(r.headers.get("location"), Some("http://b/f"));
        catalog.mark_host("b", false);
        assert_eq!(h.handle(get("/f", None)).status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn unknown_paths_and_prefix_mismatch_404() {
        let h = fed();
        assert_eq!(h.handle(get("/myfed/other", None)).status, StatusCode::NOT_FOUND);
        assert_eq!(h.handle(get("/elsewhere/data/f", None)).status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn non_get_is_rejected() {
        let h = fed();
        let mut req = get("/myfed/data/f", None);
        req.head.method = Method::Put;
        assert_eq!(h.handle(req).status, StatusCode::METHOD_NOT_ALLOWED);
    }
}
