"""Gloss: a typed model of people, places and trails, with a bit-exact
location-event wire format and the tooling around it."""
