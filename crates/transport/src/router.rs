//! Route table: method + path → endpoint.
//!
//! | method | path                          | endpoint                    |
//! |--------|-------------------------------|-----------------------------|
//! | GET    | `/v1/health`                  | liveness + model list; `?deep=1` probes |
//! | GET    | `/v1/metrics`                 | Prometheus text exposition  |
//! | GET    | `/v1/traces`                  | drain kept span trees       |
//! | POST   | `/v1/models/{id}/classify`    | classify (single or batch)  |
//! | POST   | `/v1/models/{id}/reload`      | hot-swap the model artifact |
//!
//! `/v1/traces` accepts `?peek=1` for a non-destructive read.

/// A resolved endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `GET /v1/health` (`?deep=1` adds a per-model inference readiness
    /// probe).
    Health,
    /// `GET /v1/metrics`.
    Metrics,
    /// `GET /v1/traces`.
    Traces,
    /// `POST /v1/models/{id}/classify`.
    Classify {
        /// The model id from the path.
        model: String,
    },
    /// `POST /v1/models/{id}/reload`.
    Reload {
        /// The model id from the path.
        model: String,
    },
}

/// Why a request did not resolve to an endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// No endpoint lives at this path → `404`.
    NotFound,
    /// The path exists but not under this method → `405`.
    MethodNotAllowed,
}

/// Resolves `method` + `path` (query already stripped) to a [`Route`].
///
/// # Errors
///
/// [`RouteError::NotFound`] / [`RouteError::MethodNotAllowed`].
pub fn route(method: &str, path: &str) -> Result<Route, RouteError> {
    let model_action = |path: &str| -> Option<(String, String)> {
        let rest = path.strip_prefix("/v1/models/")?;
        let (model, action) = rest.split_once('/')?;
        if model.is_empty() || action.is_empty() || action.contains('/') {
            return None;
        }
        Some((model.to_string(), action.to_string()))
    };
    match path {
        "/v1/health" => {
            if method == "GET" {
                Ok(Route::Health)
            } else {
                Err(RouteError::MethodNotAllowed)
            }
        }
        "/v1/metrics" => {
            if method == "GET" {
                Ok(Route::Metrics)
            } else {
                Err(RouteError::MethodNotAllowed)
            }
        }
        "/v1/traces" => {
            if method == "GET" {
                Ok(Route::Traces)
            } else {
                Err(RouteError::MethodNotAllowed)
            }
        }
        _ => match model_action(path) {
            Some((model, action)) if action == "classify" || action == "reload" => {
                if method != "POST" {
                    return Err(RouteError::MethodNotAllowed);
                }
                Ok(if action == "classify" {
                    Route::Classify { model }
                } else {
                    Route::Reload { model }
                })
            }
            _ => Err(RouteError::NotFound),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_resolve() {
        assert_eq!(route("GET", "/v1/health"), Ok(Route::Health));
        assert_eq!(route("GET", "/v1/stats"), Err(RouteError::NotFound));
        assert_eq!(route("GET", "/v1/metrics"), Ok(Route::Metrics));
        assert_eq!(route("GET", "/v1/traces"), Ok(Route::Traces));
        assert_eq!(
            route("POST", "/v1/models/deit-tiny/classify"),
            Ok(Route::Classify {
                model: "deit-tiny".into()
            })
        );
        assert_eq!(
            route("POST", "/v1/models/m/reload"),
            Ok(Route::Reload { model: "m".into() })
        );
    }

    #[test]
    fn wrong_method_is_405_unknown_path_is_404() {
        assert_eq!(
            route("POST", "/v1/health"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(
            route("POST", "/v1/metrics"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(
            route("POST", "/v1/traces"),
            Err(RouteError::MethodNotAllowed)
        );
        assert_eq!(
            route("GET", "/v1/models/m/classify"),
            Err(RouteError::MethodNotAllowed)
        );
        for gone in ["/nope", "/v1/trace", "/v1/slowlog", "/healthz"] {
            assert_eq!(route("GET", gone), Err(RouteError::NotFound), "{gone}");
        }
        assert_eq!(
            route("POST", "/v1/models//classify"),
            Err(RouteError::NotFound)
        );
        assert_eq!(
            route("POST", "/v1/models/m/evict"),
            Err(RouteError::NotFound)
        );
        assert_eq!(
            route("POST", "/v1/models/a/b/classify"),
            Err(RouteError::NotFound)
        );
    }
}
