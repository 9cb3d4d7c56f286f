"""Event rows as the EventColumns that every event-log function takes.

Tests write small logs as lists of Event rows; as_columns() appends each row
through EventColumnAppender.append, the checked path the readers take.
"""

from sendwhen.pipeline import EventColumnAppender


def as_columns(events):
    """The EventColumns of Event rows, in their order."""
    appender = EventColumnAppender()
    for e in events:
        appender.append(e.user_id, e.ts_hours, e.kind, e.badge_count, e.features)
    return appender.build()
