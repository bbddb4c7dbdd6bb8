CREATE TABLE "User" (
    user_id INTEGER PRIMARY KEY,
    user_name VARCHAR(255),
    user_title VARCHAR(255),
    user_body INTEGER,
    user_email VARCHAR(255),
    user_status VARCHAR(255),
    user_price INTEGER
);
CREATE TABLE Post (
    post_id INTEGER PRIMARY KEY,
    post_name VARCHAR(255),
    post_title VARCHAR(255),
    post_body INTEGER,
    post_email VARCHAR(255),
    post_status VARCHAR(255),
    post_price INTEGER
);
CREATE TABLE Comment (
    comment_id INTEGER PRIMARY KEY,
    comment_name VARCHAR(255),
    comment_title VARCHAR(255),
    comment_body INTEGER,
    comment_email VARCHAR(255),
    comment_status VARCHAR(255),
    comment_price INTEGER
);
CREATE TABLE Photo (
    photo_id INTEGER PRIMARY KEY,
    photo_name VARCHAR(255),
    photo_title VARCHAR(255),
    photo_body INTEGER,
    photo_email VARCHAR(255),
    photo_status VARCHAR(255),
    photo_price INTEGER
);
CREATE TABLE Album (
    album_id INTEGER PRIMARY KEY,
    album_name VARCHAR(255),
    album_title VARCHAR(255),
    album_body INTEGER,
    album_email VARCHAR(255),
    album_status VARCHAR(255),
    album_price INTEGER,
    order_id INTEGER,
    order_name VARCHAR(255),
    order_title VARCHAR(255)
);
CREATE TABLE Product (
    product_id INTEGER PRIMARY KEY,
    product_name VARCHAR(255),
    product_title VARCHAR(255),
    product_body INTEGER,
    product_email VARCHAR(255),
    product_status VARCHAR(255),
    product_price INTEGER
);
CREATE TABLE Cart (
    cart_id INTEGER PRIMARY KEY,
    cart_name VARCHAR(255),
    cart_title VARCHAR(255),
    cart_body INTEGER,
    cart_email VARCHAR(255),
    cart_status VARCHAR(255),
    cart_price INTEGER
);
CREATE TABLE Review (
    review_id INTEGER PRIMARY KEY,
    review_name VARCHAR(255),
    review_title VARCHAR(255),
    review_body INTEGER,
    review_email VARCHAR(255),
    review_status VARCHAR(255),
    review_price INTEGER
);
CREATE TABLE Tag (
    tag_id INTEGER PRIMARY KEY,
    tag_name VARCHAR(255),
    tag_title VARCHAR(255),
    tag_body INTEGER,
    tag_email VARCHAR(255),
    tag_status VARCHAR(255),
    tag_price INTEGER
);
CREATE TABLE Category (
    category_id INTEGER PRIMARY KEY,
    category_name VARCHAR(255),
    category_title VARCHAR(255),
    category_body INTEGER,
    category_email VARCHAR(255),
    category_status VARCHAR(255)
);
CREATE TABLE Invoice (
    invoice_id INTEGER PRIMARY KEY,
    invoice_name VARCHAR(255),
    invoice_title VARCHAR(255),
    invoice_body INTEGER,
    invoice_email VARCHAR(255),
    invoice_status VARCHAR(255)
);
