//! Free-function entry points for the `campaign` cache artifact codec.
//!
//! The codecs themselves are [`ToJson`]/[`FromJson`] impls in the crates
//! that define each type; these two functions name the campaign-outcome
//! pair by path for callers that do not import the traits.

use ssresf::CampaignOutcome;
use ssresf_json::{FromJson, ToJson, Value};

/// Encodes a full campaign outcome (the `campaign` cache artifact).
pub fn campaign_outcome_to_json(outcome: &CampaignOutcome) -> Value {
    outcome.to_json()
}

/// Decodes a campaign outcome.
///
/// # Errors
///
/// Returns a description when the value is structurally invalid.
pub fn campaign_outcome_from_json(value: &Value) -> Result<CampaignOutcome, String> {
    CampaignOutcome::from_json(value)
}
