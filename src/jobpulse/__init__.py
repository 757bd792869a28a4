"""Job-posting demand pipeline: taxonomy matching, fractional
deduplication, employer disambiguation, and demand reporting."""
